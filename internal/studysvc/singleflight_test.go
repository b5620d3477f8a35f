package studysvc

import (
	"context"
	"sync"
	"testing"
	"time"

	"daosim/internal/cache"
	"daosim/internal/core"
	"daosim/internal/ior"
)

// keyedWorker counts RunPoint invocations per cache key and fabricates a
// key-pure result (a function of the derived seed only), so a replayed
// leader result is value-identical to what the follower's own execution
// would have produced — exactly the purity the real kernel guarantees.
// With gate non-nil, every execution blocks until the gate closes, pinning
// flights open so coalescing is deterministic rather than a race.
type keyedWorker struct {
	mu   sync.Mutex
	runs map[cache.Key]int
	gate chan struct{}
}

func (w *keyedWorker) RunPoint(ctx context.Context, j core.PointJob) (core.Point, error) {
	k := j.Key()
	w.mu.Lock()
	w.runs[k]++
	w.mu.Unlock()
	if w.gate != nil {
		select {
		case <-w.gate:
		case <-ctx.Done():
			return canceledPoint(j), nil
		}
	}
	v := float64(j.Seed % 1009)
	return core.Point{Nodes: j.Nodes, Ranks: j.Nodes * j.Cfg.PPN, WriteGiBs: v, ReadGiBs: 2 * v}, nil
}

// TestSingleFlightDedupsConcurrentSubmissions is the scheduler-dedup
// regression test: a batch carrying a duplicate point (the pre-dedup node
// list -nodes 2,2) and a second concurrent client overlapping the same
// grid must between them simulate every unique key exactly once. The
// worker gate holds the first flight open until both submissions have
// parked their duplicates, so the coalescing paths are exercised
// deterministically, not raced into.
func TestSingleFlightDedupsConcurrentSubmissions(t *testing.T) {
	memCache, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	worker := &keyedWorker{runs: make(map[cache.Key]int), gate: make(chan struct{})}
	srv, ts := startServer(t, Config{
		Workers:   1,
		NewWorker: func() Worker { return worker },
		Cache:     memCache,
	})

	variant := []core.Variant{{Label: "daos S2", API: ior.APIDFS}}
	cfgA := smallConfig(variant)
	cfgA.Nodes = []int{2, 2} // duplicate point within one batch
	cfgB := smallConfig(variant)
	cfgB.Nodes = []int{2, 3} // overlaps A's grid at nodes=2

	var wg sync.WaitGroup
	clients := [2]*Client{NewClient(ts.URL), NewClient(ts.URL)}
	errs := [2]error{}
	results := [2][]*core.Study{}
	for i, cfg := range []core.Config{cfgA, cfgB} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = clients[i].Submit(context.Background(), []core.Config{cfg})
		}()
	}

	// Both unique keys are in flight once A's and B's enqueue loops have
	// run: the first nodes=2 job (A's or B's) leads a flight the gated
	// worker pins open, so the other two nodes=2 jobs must coalesce onto
	// it, and nodes=3 waits behind it for the single slot. Waiting for the
	// two parked jobs too keeps this deterministic: a batch whose enqueue
	// loop first ran after the gate opened would find cache hits instead.
	waitFor(t, "both unique keys in flight, two jobs parked", func() bool {
		srv.flightMu.Lock()
		defer srv.flightMu.Unlock()
		parked := 0
		for _, f := range srv.flights {
			parked += len(f.waiters)
		}
		return len(srv.flights) == 2 && parked == 2
	})
	close(worker.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	// Every slot holds the right key-pure value, coalesced replays included.
	for i, cfg := range []core.Config{cfgA, cfgB} {
		_, jobs := core.Decompose([]core.Config{cfg})
		for _, j := range jobs {
			pt := results[i][j.Study].Series[j.Series].Points[j.Index]
			if v := float64(j.Seed % 1009); pt.WriteGiBs != v || pt.ReadGiBs != 2*v || pt.Nodes != j.Nodes {
				t.Fatalf("client %d slot (%d,%d,%d): %+v, want write=%v", i, j.Study, j.Series, j.Index, pt, v)
			}
		}
	}

	// The dedup ledger: 4 submitted jobs, 2 unique keys, each simulated
	// exactly once and stored exactly once.
	worker.mu.Lock()
	defer worker.mu.Unlock()
	if len(worker.runs) != 2 {
		t.Fatalf("worker saw %d unique keys, want 2: %v", len(worker.runs), worker.runs)
	}
	for k, n := range worker.runs {
		if n != 1 {
			t.Fatalf("key %s simulated %d times, want exactly 1", k, n)
		}
	}
	if st := memCache.Stats(); st.Stores != 2 {
		t.Fatalf("cache stores = %d, want 2 (one per unique key): %+v", st.Stores, st)
	}
	coalesced := clients[0].Ledger().Coalesced + clients[1].Ledger().Coalesced
	if coalesced != 2 {
		t.Fatalf("coalesced points = %d, want 2 (4 jobs - 2 unique keys)", coalesced)
	}
	if clients[0].Ledger().Coalesced < 1 {
		t.Fatal("client A's in-batch duplicate was not coalesced")
	}
	srv.flightMu.Lock()
	leaked := len(srv.flights)
	srv.flightMu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d flights leaked after both streams completed", leaked)
	}
}

// TestFinishResolvesFlightBeforePublishing pins the order inside finish: a
// leader's flight is resolved before its point becomes visible. An
// unregistered batch publishes inside deliver, so with the order reversed
// its client could read the last point, re-submit, and park the
// re-submission on the stale flight — a coalesced replay where a cache hit
// was due. Holding flightMu blocks resolve, so the point must stay
// unpublished until the lock is released.
func TestFinishResolvesFlightBeforePublishing(t *testing.T) {
	memCache, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, NewWorker: func() Worker { return stubWorker{} }, Cache: memCache})
	defer srv.Close()
	_, jobs := core.Decompose([]core.Config{smallConfig([]core.Variant{{Label: "daos S2", API: ior.APIDFS}})})
	b := srv.newBatch(context.Background(), "", jobs, 1)
	leader := task{b: b, pos: 0, key: jobs[0].Key()}
	if !srv.lead(leader) {
		t.Fatal("a fresh key was already in flight")
	}
	published := func() int {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.log)
	}

	srv.flightMu.Lock()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		srv.finish(leader, core.Point{Nodes: jobs[0].Nodes}, false)
	}()
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if n := published(); n != 0 {
			srv.flightMu.Unlock()
			t.Fatalf("%d point(s) published while the flight was still registered", n)
		}
	}
	srv.flightMu.Unlock()
	<-finished
	if n := published(); n != 1 {
		t.Fatalf("log holds %d points after finish, want 1", n)
	}
	srv.flightMu.Lock()
	defer srv.flightMu.Unlock()
	if n := len(srv.flights); n != 0 {
		t.Fatalf("%d flight(s) left registered after finish", n)
	}
}

// TestSingleFlightCanceledLeaderPromotesWaiter kills the leader's
// submission while its point is gated mid-execution; the concurrent
// follower submission of the same key must still receive a real result —
// the flight is handed to the live waiter, not lost with the dead leader.
func TestSingleFlightCanceledLeaderPromotesWaiter(t *testing.T) {
	memCache, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	worker := &keyedWorker{runs: make(map[cache.Key]int), gate: make(chan struct{})}
	srv, ts := startServer(t, Config{
		Workers:   1,
		NewWorker: func() Worker { return worker },
		Cache:     memCache,
	})

	cfg := smallConfig([]core.Variant{{Label: "daos S2", API: ior.APIDFS}})
	cfg.Nodes = []int{2}

	leadCtx, cancelLead := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	leader, follower := NewClient(ts.URL), NewClient(ts.URL)
	var followerStudies []*core.Study
	var followerErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		leader.Submit(leadCtx, []core.Config{cfg}) // error expected: canceled below
	}()
	// The leader's job reaches the worker and blocks on the gate; the
	// follower then parks on the flight.
	waitFor(t, "leader executing", func() bool {
		worker.mu.Lock()
		defer worker.mu.Unlock()
		return len(worker.runs) == 1
	})
	go func() {
		defer wg.Done()
		followerStudies, followerErr = follower.Submit(context.Background(), []core.Config{cfg})
	}()
	waitFor(t, "follower parked on the flight", func() bool {
		srv.flightMu.Lock()
		defer srv.flightMu.Unlock()
		for _, f := range srv.flights {
			if len(f.waiters) == 1 {
				return true
			}
		}
		return false
	})

	cancelLead()
	close(worker.gate)
	wg.Wait()

	if followerErr != nil {
		t.Fatalf("follower submission failed after leader cancellation: %v", followerErr)
	}
	_, jobs := core.Decompose([]core.Config{cfg})
	for _, j := range jobs {
		pt := followerStudies[j.Study].Series[j.Series].Points[j.Index]
		if pt.Err != "" {
			t.Fatalf("follower's point carries the leader's cancellation: %q", pt.Err)
		}
		if v := float64(j.Seed % 1009); pt.WriteGiBs != v {
			t.Fatalf("follower slot (%d,%d,%d): %+v, want write=%v", j.Study, j.Series, j.Index, pt, v)
		}
	}
	srv.flightMu.Lock()
	leaked := len(srv.flights)
	srv.flightMu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d flights leaked after promotion", leaked)
	}
}

// TestDuplicatePoolMemberNamesAreDisambiguated pins the pool-build naming
// fix: the same peer URL listed twice (at RemoteSlots 1 and >1) and
// duplicate explicit Members must yield distinct /v1/statsz fleet entries.
func TestDuplicatePoolMemberNamesAreDisambiguated(t *testing.T) {
	distinct := func(t *testing.T, srv *Server) map[string]bool {
		t.Helper()
		seen := make(map[string]bool)
		for _, m := range srv.Fleet() {
			if seen[m.Name] {
				t.Fatalf("fleet reports two members named %q: %+v", m.Name, srv.Fleet())
			}
			seen[m.Name] = true
		}
		return seen
	}

	t.Run("same remote twice at one slot", func(t *testing.T) {
		srv := New(Config{Remotes: []string{"http://peer:9464", "http://peer:9464"}})
		defer srv.Close()
		seen := distinct(t, srv)
		if !seen["http://peer:9464"] || !seen["http://peer:9464@2"] {
			t.Fatalf("unexpected member names: %v", seen)
		}
	})
	t.Run("same remote twice at two slots", func(t *testing.T) {
		srv := New(Config{Remotes: []string{"http://peer:9464", "http://peer:9464"}, RemoteSlots: 2})
		defer srv.Close()
		if seen := distinct(t, srv); len(seen) != 4 {
			t.Fatalf("want 4 distinct members, got %v", seen)
		}
	})
	t.Run("duplicate explicit members", func(t *testing.T) {
		w := &keyedWorker{runs: make(map[cache.Key]int)}
		srv := New(Config{Members: []Member{{Name: "twin", Worker: w}, {Name: "twin", Worker: w}, {Name: "twin", Worker: w}}})
		defer srv.Close()
		seen := distinct(t, srv)
		if !seen["twin"] || !seen["twin@2"] || !seen["twin@3"] {
			t.Fatalf("unexpected member names: %v", seen)
		}
	})
}
