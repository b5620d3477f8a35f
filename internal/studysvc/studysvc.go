// Package studysvc is the sharded multi-study scheduler service behind
// cmd/daosd: a long-lived HTTP server that accepts batches of study
// configurations, decomposes them into independent (variant, node-count)
// point jobs with core.Decompose, consults the content-addressed point
// cache (internal/cache) before scheduling, shards the remaining jobs
// across a bounded worker pool, and streams each completed point back to
// the submitting client as NDJSON the moment it lands.
//
// # Determinism across the wire
//
// The service adds scheduling, not physics. Both ends of the protocol run
// the same core.Decompose over the same configs, every point executes
// through core.PointJob.Execute with its order-independent derived seed,
// and measured float64s cross the wire losslessly — so a client-side
// reassembled *core.Study renders Table and CSV output byte-identical to
// an in-process core.Runner run of the same batch. The e2e tests pin this
// contract cold and warm.
//
// # Sharding and flow control
//
// All submissions share one job queue drained by the pool members (the
// shard width), so concurrent clients compete fairly for simulation
// capacity and the process never exceeds its concurrency bound. Every
// submission is a batch with one delivery log, allocated to the batch
// size up front: a worker appends its result without waiting for any
// client, so one slow or vanished client cannot wedge the pool, and
// every stream — the submitting request's, or a resume leg's — reads
// that log from an offset and follows it to the trailer. A batch runs
// under a context.
// Storeless submissions and the /v1/points leg run under their request:
// when the client disconnects mid-stream, the batch's remaining queued
// jobs are skipped and its in-flight points finish and are discarded.
//
// # The worker fleet
//
// A pool member is either a LocalWorker (an in-process simulation slot) or
// a RemoteWorker (a peer daosd reached over the /v1/points leg of the
// protocol) — Config.Remotes turns a server into a fleet coordinator.
// Because every job carries its derived seed and defaulted config, where a
// point executes is invisible in the results: coordinator output is
// byte-identical to a single in-process run.
//
// The coordinator owns fleet robustness. A worker-level failure (peer died
// mid-point, connection reset, truncated result stream) does not fail the
// point: the job is re-dispatched to another member — up to
// Config.MaxAttempts times — and the failed member is marked down and
// re-probed against its peer's /v1/healthz with exponential backoff until
// it answers, at which point it rejoins the pool. Per-batch retry counts
// surface in the stream trailer; cumulative per-member state in
// /v1/statsz.
//
// # Caching and single-flight
//
// With a cache configured, the scheduler looks every job up by its
// content address (core.PointJob.Key) before dispatch — hits stream back
// immediately, marked cache_hit — and stores every successfully simulated
// point on completion. A warm server therefore answers a repeated batch
// entirely from cache, which the stream trailer's ledger reports as 100%
// hits. The cache may be disk-backed and shared with in-process runs: the
// key scheme is identical — and because a fleet worker is itself a daosd,
// each peer's own cache dedups the points it executes with the same keys.
//
// The cache alone cannot dedup points that are concurrently in flight: two
// submissions of the same uncached key would both miss and both simulate.
// So the scheduler adds single-flight, keyed on the same content address.
// The first looker-up of a key becomes its flight's leader and proceeds
// through cache lookup and dispatch; every later task with that key —
// a duplicate inside one batch (pre-dedup node lists like -nodes 8,8) or
// an overlapping concurrent submission — parks as a waiter and has the
// leader's result replayed to it, marked coalesced in the stream. If the
// leader's submission is canceled mid-flight, the next waiter with a live
// context is promoted to leader and the point still executes exactly once.
// Single-flight is part of the cache contract and engages only when a
// cache is configured.
//
// # The shared cache tier
//
// A daosd also serves its cache over GET/PUT /v1/cache/{key} (the cache
// package's TierPathPrefix), answering from its local tiers only. Any
// daosim process started with -cache-peer mounts those endpoints as a
// remote cache tier below its own memory and disk tiers, which makes point
// dedup fleet-global: every peer pointed at the same daosd shares one pool
// of completed points, keyed identically on every machine. The endpoints
// serve local tiers exclusively, so peers pointing at each other can never
// turn one lookup into a forwarding loop.
//
// # Durable submissions
//
// With Config.Store set (daosd -store-dir), PathSubmit batches are
// registered and journaled: they run under the server's lifetime rather
// than the request's, each result is appended to the job store before it
// enters the delivery log, and a client that lost its connection — or
// whose server was kill -9ed and restarted — re-attaches with GET
// /v1/studies/{batch}?from=seq and receives exactly the points it
// missed. See durable.go and the protocol comment for the lifecycle.
package studysvc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"daosim/internal/cache"
	"daosim/internal/core"
	"daosim/internal/jobstore"
)

// Config assembles a Server.
type Config struct {
	// Workers is the number of local execution slots. When no Remotes and
	// no Members are configured it defaults to runtime.GOMAXPROCS(0); on a
	// fleet coordinator it defaults to zero (all execution remote).
	Workers int
	// NewWorker builds one local slot's execution backend (default
	// LocalWorker). Each of the Workers slots gets its own instance.
	NewWorker func() Worker
	// Remotes lists peer daosd base URLs (host:port or http:// URLs); each
	// contributes RemoteSlots pool members executing on that peer.
	Remotes []string
	// RemoteSlots is the number of points kept in flight per remote peer
	// (default 1). The peer's own -parallel pool bounds what it actually
	// simulates concurrently.
	RemoteSlots int
	// Members adds explicit pool members after the local and remote ones —
	// the seam tests and custom topologies use.
	Members []Member
	// MaxAttempts bounds how many workers a job is tried on before its
	// point is failed with the last worker error (default 3).
	MaxAttempts int
	// ProbeBase and ProbeMax shape the down-worker re-probe backoff: the
	// first probe waits ProbeBase, doubling per failure up to ProbeMax
	// (defaults 100ms and 5s).
	ProbeBase time.Duration
	ProbeMax  time.Duration
	// Cache, when non-nil, memoizes completed points across submissions.
	Cache *cache.Cache
	// Store, when non-nil, journals every PathSubmit batch and its
	// completed points, making submissions durable across restarts and
	// streams resumable (see durable.go and the protocol comment). The
	// server replays the store's recovered batches at startup; the caller
	// owns opening and closing the store itself.
	Store *jobstore.Store
}

// task is one scheduled point job: position pos of batch b.
type task struct {
	b        *batchState
	pos      int
	key      cache.Key // content address (set whenever a cache is configured)
	attempts int       // dispatches so far (0 until first failure)
}

// job returns the point job t schedules.
func (t task) job() core.PointJob { return t.b.jobs[t.pos] }

// flight is one in-flight point key: the leader task is dispatched, every
// later task of the same key parks here until the leader's result lands.
type flight struct {
	waiters []task
}

// Server schedules study submissions over a bounded worker pool. It is an
// http.Handler; create one with New and shut it down with Close.
type Server struct {
	cfg     Config
	cache   *cache.Cache
	members []*member
	queue   chan task
	wg      sync.WaitGroup
	mux     *http.ServeMux

	// ctx is the server's lifetime: registered batches run under it, and
	// every pool loop, dispatch, stream, and health probe ends with it.
	// Close cancels it first, so probes in flight return immediately
	// instead of riding out probeTimeout and stalling the drain.
	ctx    context.Context
	cancel context.CancelFunc

	// flights is the single-flight table: one entry per point key currently
	// between cache lookup and result delivery.
	flightMu sync.Mutex
	flights  map[cache.Key]*flight

	// Durable-batch state (Config.Store set; see durable.go).
	store       *jobstore.Store
	batchMu     sync.Mutex
	batches     map[string]*batchState
	journaled   atomic.Int64
	resumed     atomic.Int64
	journalErrs atomic.Int64
	recovery    DurabilityStats // last-startup recovery counters, static after New

	draining  atomic.Bool
	retries   atomic.Int64 // jobs re-dispatched after a worker failure
	closeOnce sync.Once
}

// New starts a Server's worker pool and returns the ready handler.
func New(cfg Config) *Server {
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	if cfg.Workers == 0 && len(cfg.Remotes) == 0 && len(cfg.Members) == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.NewWorker == nil {
		cfg.NewWorker = func() Worker { return &LocalWorker{} }
	}
	if cfg.RemoteSlots <= 0 {
		cfg.RemoteSlots = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.ProbeBase <= 0 {
		cfg.ProbeBase = 100 * time.Millisecond
	}
	if cfg.ProbeMax <= 0 {
		cfg.ProbeMax = 5 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		cache:   cfg.Cache,
		queue:   make(chan task),
		mux:     http.NewServeMux(),
		flights: make(map[cache.Key]*flight),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	// Member names must be unique: they key the /v1/statsz fleet entries
	// and seed the probe jitter, so two members sharing a name would be
	// indistinguishable in diagnostics (and probe in lockstep). A repeated
	// name — the same peer URL listed twice to give it more slots, or
	// duplicate Config.Members entries — gets an @n ordinal at pool build.
	used := make(map[string]bool)
	unique := func(name string) string {
		base := name
		for n := 2; used[name]; n++ {
			name = fmt.Sprintf("%s@%d", base, n)
		}
		used[name] = true
		return name
	}
	for i := 0; i < cfg.Workers; i++ {
		s.members = append(s.members, &member{name: unique(fmt.Sprintf("local/%d", i)), w: cfg.NewWorker()})
	}
	for _, addr := range cfg.Remotes {
		// One RemoteWorker (one transport) per peer, shared by its slots:
		// each in-flight point is an independent HTTP exchange.
		rw := NewRemoteWorker(addr)
		for k := 0; k < cfg.RemoteSlots; k++ {
			name := rw.Addr()
			if cfg.RemoteSlots > 1 {
				name = fmt.Sprintf("%s#%d", rw.Addr(), k)
			}
			s.members = append(s.members, &member{name: unique(name), w: rw})
		}
	}
	for _, m := range cfg.Members {
		s.members = append(s.members, &member{name: unique(m.Name), w: m.Worker})
	}
	for _, m := range s.members {
		m.rng = probeRNG(m.name)
	}
	s.mux.HandleFunc("POST "+PathSubmit, s.handleSubmit)
	s.mux.HandleFunc("GET "+PathSubmit+"/{batch}", s.handleResume)
	s.mux.HandleFunc("POST "+PathSubmitPoints, s.handleSubmitPoints)
	s.mux.HandleFunc("GET "+PathHealth, s.handleHealth)
	s.mux.HandleFunc("GET "+PathStats, s.handleStats)
	s.mux.HandleFunc("GET "+cache.TierPathPrefix+"{key}", s.handleCacheGet)
	s.mux.HandleFunc("PUT "+cache.TierPathPrefix+"{key}", s.handleCachePut)
	for _, m := range s.members {
		s.wg.Add(1)
		go s.memberLoop(m)
	}
	if cfg.Store != nil {
		s.store = cfg.Store
		s.batches = make(map[string]*batchState)
		// The pool is running; recovered batches schedule through it like
		// fresh submissions, minus their already-journaled points.
		s.recoverBatches()
	}
	return s
}

// Recovery reports the startup journal-replay counters (zero without a
// job store): unfinished batches found, points served from the store,
// and points re-enqueued for execution.
func (s *Server) Recovery() (batches, replayed, reenqueued int) {
	return s.recovery.RecoveredBatches, s.recovery.ReplayedPoints, s.recovery.ReenqueuedPoints
}

// Workers returns the pool width: the total number of execution slots,
// local and remote.
func (s *Server) Workers() int { return len(s.members) }

// Fleet snapshots every pool member's state and counters.
func (s *Server) Fleet() []MemberStatus {
	out := make([]MemberStatus, len(s.members))
	for i, m := range s.members {
		out[i] = m.status()
	}
	return out
}

// Retries returns the cumulative number of jobs re-dispatched after a
// worker failure.
func (s *Server) Retries() int64 { return s.retries.Load() }

// Close stops the worker pool and waits for in-flight points to finish.
// New submissions arriving once a Close has begun are rejected with a 503
// ("server draining"); submissions already streaming observe the shutdown
// and end their streams early (truncated, i.e. without a trailer — the
// client-visible signal for mid-flight loss). Close is idempotent.
func (s *Server) Close() {
	s.kill()
	s.wg.Wait()
}

// kill is Close without the wait, and the crash test hook: the lifetime
// context is canceled before anything else can observe the shutdown, so
// no result that lands afterwards is journaled — the journal is left as
// a SIGKILLed daosd leaves it. Tests call Close afterwards to reap the
// pool.
func (s *Server) kill() {
	s.closeOnce.Do(func() {
		s.cancel()
		s.draining.Store(true)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// memberLoop drains the shared queue on behalf of one pool member until
// shutdown, then releases the member's per-slot state (a LocalWorker's
// kernel arena, a remote worker's connections). A worker-level failure
// sends the job back for retry elsewhere and holds this member out of the
// pool until probeUntilUp readmits it.
func (s *Server) memberLoop(m *member) {
	defer s.wg.Done()
	defer m.close()
	for {
		var t task
		select {
		case <-s.ctx.Done():
			return
		case t = <-s.queue:
		}
		ctx := t.b.ctx
		if ctx.Err() != nil {
			s.promote(t.key)
			continue
		}
		pt, err := m.w.RunPoint(ctx, t.job())
		switch {
		case ctx.Err() != nil && (err != nil || pt.Err != ""):
			// The batch ended while the point was in flight, so the failure
			// is its cancellation echoed back — evidence about neither the
			// point nor (for a remote's transport error) the worker. A
			// coalesced waiter from a live batch takes over the flight.
			s.promote(t.key)
		case err == nil:
			m.points.Add(1)
			if s.cache != nil && pt.Err == "" {
				// Put, then resolve, then publish (see finish): the instant
				// the flight resolves, a fresh looker-up of this key must
				// already find the entry, and a client that has read the
				// point must find the flight gone.
				s.cache.Put(t.key, pt.CacheEntry())
			}
			s.finish(t, pt, false)
			s.commit(t.b)
		default:
			m.failures.Add(1)
			s.retry(t, m.name, err)
			if !s.probeUntilUp(m) {
				return
			}
		}
	}
}

// retry hands a worker-failed job back to the pool — or fails its point
// when the job has exhausted its attempts. The requeue runs on its own
// goroutine because the calling member is headed for its probe loop and
// must not block waiting for a free slot.
func (s *Server) retry(t task, worker string, cause error) {
	t.attempts++
	if t.attempts >= s.cfg.MaxAttempts {
		pt := canceledPoint(t.job())
		pt.Err = fmt.Sprintf("studysvc: point abandoned after %d attempts; last worker %s: %v",
			t.attempts, worker, cause)
		// Abandonment resolves the flight too: the attempts were spent on
		// behalf of every coalesced waiter, so all of them see the failure.
		s.finish(t, pt, false)
		s.commit(t.b)
		return
	}
	s.retries.Add(1)
	t.b.retried.Add(1)
	go s.dispatch(t)
}

// lead registers t as the flight for its key. It returns true when t is
// the leader — the caller must eventually resolve the flight through
// finish or promote — and false when the key is already in flight: t has
// been parked as a waiter and will have the leader's result replayed to
// it.
func (s *Server) lead(t task) bool {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if f, ok := s.flights[t.key]; ok {
		f.waiters = append(f.waiters, t)
		return false
	}
	s.flights[t.key] = &flight{}
	return true
}

// resolve removes k's flight and returns its parked waiters.
func (s *Server) resolve(k cache.Key) []task {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	f, ok := s.flights[k]
	if !ok {
		return nil
	}
	delete(s.flights, k)
	return f.waiters
}

// finish resolves t's flight, delivers pt to t's batch, and replays it to
// every waiter that coalesced onto the flight, committing each waiter's
// batch. The flight goes first: an unregistered batch publishes inside
// deliver, so its client may read the point and re-submit at once, and
// the re-submission must find the cache entry, not a flight to wait on.
// Committing t's own batch is the caller's call: enqueue gathers a batch's
// cache hits into one commit.
func (s *Server) finish(t task, pt core.Point, hit bool) {
	waiters := s.resolve(t.key)
	t.b.deliver(t.pos, toWire(t.job(), pt, hit))
	for _, w := range waiters {
		sp := toWire(w.job(), pt, hit)
		sp.Coalesced = true
		w.b.deliver(w.pos, sp)
		s.commit(w.b)
	}
}

// promote hands k's flight on after its leader's batch ended: the leader's
// death must not lose a point other batches are waiting on. Waiters whose
// batches ended too are dropped — their results would be nobody's — and
// the first live one is rerun as the flight's new leader, on its own
// goroutine because promotion happens on a pool member's loop (or an
// enqueue goroutine) that must not block waiting for a free slot. With no
// live waiter the flight is dissolved.
func (s *Server) promote(k cache.Key) {
	var next *task
	s.flightMu.Lock()
	if f, ok := s.flights[k]; ok {
		for len(f.waiters) > 0 && next == nil {
			if w := f.waiters[0]; w.b.ctx.Err() == nil {
				next = &w
			}
			f.waiters = f.waiters[1:]
		}
		if next == nil {
			delete(s.flights, k)
		}
	}
	s.flightMu.Unlock()
	if next != nil {
		go func() {
			s.run(*next)
			s.commit(next.b)
		}()
	}
}

// run serves t from the cache or, on a miss, hands it to the pool. A
// registered batch's hit is left staged for the caller to commit, and
// everything staged in t's batch is committed before a miss waits for a
// pool slot. It reports false when t's batch or the server ended first.
func (s *Server) run(t task) bool {
	if s.cache != nil {
		if e, ok := s.cache.Get(t.key); ok {
			s.finish(t, t.job().FromEntry(e), true)
			return true
		}
	}
	s.commit(t.b)
	return s.dispatch(t)
}

// dispatch hands t to the pool. When t's batch ends first, t's flight
// passes to a live waiter; when the server shuts down, t is dropped. It
// reports whether t was queued.
func (s *Server) dispatch(t task) bool {
	select {
	case s.queue <- t:
		return true
	case <-t.b.ctx.Done():
		s.promote(t.key)
	case <-s.ctx.Done():
	}
	return false
}

// enqueue schedules b's jobs, passing over the positions marked in skip
// (nil for a fresh batch; a recovered batch's journaled points). With a
// cache configured, each job first takes single-flight leadership of its
// key — a key already in flight (a duplicate in this batch, or a
// concurrent submission's) parks the job as a waiter instead — and the
// leader holds the flight across its cache lookup, so concurrent
// lookers-up of one key cost one lookup: for a remote tier, one network
// exchange, not a stampede. A leader that hits resolves its flight right
// after the lookup, and the hits of a registered batch are journaled
// together: enqueue commits before each wait for a pool slot and once it
// is done. Enqueueing stops when b or the server ends.
func (s *Server) enqueue(b *batchState, skip []bool) {
	defer s.commit(b)
	for pos, j := range b.jobs {
		if skip != nil && skip[pos] {
			continue
		}
		t := task{b: b, pos: pos}
		if s.cache != nil {
			t.key = j.Key()
			if !s.lead(t) {
				continue
			}
		}
		if !s.run(t) {
			return
		}
	}
}

// handleSubmit decomposes a batch, schedules its points, and streams results
// back in completion order.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("studysvc: bad submit body: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Configs) == 0 {
		http.Error(w, "studysvc: empty batch", http.StatusBadRequest)
		return
	}
	if s.draining.Load() {
		// Losing the race against Close must be loud: a 503 before any
		// stream byte, never a silently dropped batch.
		http.Error(w, "studysvc: server draining", http.StatusServiceUnavailable)
		return
	}
	ctx, id := r.Context(), ""
	if s.store != nil {
		// A journaled batch outlives its request: the client may come and
		// go. openBatch is idempotent on the id, so a client re-POSTing
		// after a lost connection re-attaches to the running batch from
		// seq 0.
		ctx, id = s.ctx, req.Batch
		if id == "" {
			id = newBatchID()
		}
	}
	// A batch that decomposes to zero points (e.g. a config with no
	// variants) streams normally — header then trailer — matching
	// core.Runner.RunAll, which returns such studies with empty series.
	b, _ := s.openBatch(ctx, id, req.Configs)
	s.serveBatch(w, r, b, 0)
}

// handleSubmitPoints schedules pre-decomposed jobs — the coordinator-to-
// worker leg — through the identical queue, cache, and stream machinery.
func (s *Server) handleSubmitPoints(w http.ResponseWriter, r *http.Request) {
	var req PointsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("studysvc: bad points body: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Jobs) == 0 {
		http.Error(w, "studysvc: empty job batch", http.StatusBadRequest)
		return
	}
	if s.draining.Load() {
		http.Error(w, "studysvc: server draining", http.StatusServiceUnavailable)
		return
	}
	studies := make(map[int]bool)
	for _, j := range req.Jobs {
		studies[j.Study] = true
	}
	b := s.newBatch(r.Context(), "", req.Jobs, len(studies))
	go s.enqueue(b, nil)
	s.serveBatch(w, r, b, 0)
}

// handleHealth implements PathHealth.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "studysvc: server draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ServerStats is the PathStats body: pool width, cumulative fleet retry
// count, per-member fleet state, and cache counters.
type ServerStats struct {
	Workers int            `json:"workers"`
	Retries int64          `json:"retries"`
	Fleet   []MemberStatus `json:"fleet,omitempty"`
	Cache   *cache.Stats   `json:"cache,omitempty"`
	// Durability is present on servers running with a job store: journal
	// and recovery counters (see DurabilityStats).
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// handleStats implements PathStats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	reply := ServerStats{Workers: s.Workers(), Retries: s.Retries(), Fleet: s.Fleet()}
	if s.cache != nil {
		st := s.cache.Stats()
		reply.Cache = &st
	}
	reply.Durability = s.durabilityStats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}

// handleCacheGet serves one cache entry to a peer's remote tier: a 200
// carrying the checksummed record for a hit, a 404 for a miss (or for a
// server with no cache configured — a clean refusal the remote tier
// surfaces as an error without marking the peer down). Only local tiers
// are consulted (cache.GetLocal), so peers pointing at each other can
// never chain lookups into a loop.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "studysvc: server draining", http.StatusServiceUnavailable)
		return
	}
	if s.cache == nil {
		http.Error(w, "studysvc: no cache tier", http.StatusNotFound)
		return
	}
	k, err := cache.ParseKey(r.PathValue("key"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	e, ok := s.cache.GetLocal(k)
	if !ok {
		http.Error(w, "studysvc: no cache entry", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(cache.EncodeEntry(e))
}

// handleCachePut accepts one cache entry from a peer's remote tier. The
// body is the same checksummed record the disk tier persists, so a
// truncated or garbled upload is rejected (400) by the identical decode
// path that rejects a torn disk file. Writes land in local tiers only
// (cache.PutLocal); puts are best-effort on the sending side, so every
// refusal here is just a counted miss over there.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "studysvc: server draining", http.StatusServiceUnavailable)
		return
	}
	if s.cache == nil {
		http.Error(w, "studysvc: no cache tier", http.StatusNotFound)
		return
	}
	k, err := cache.ParseKey(r.PathValue("key"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	buf, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<10))
	if err != nil {
		http.Error(w, fmt.Sprintf("studysvc: bad cache entry body: %v", err), http.StatusBadRequest)
		return
	}
	e, err := cache.DecodeEntry(buf)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.cache.PutLocal(k, e)
	w.WriteHeader(http.StatusNoContent)
}
