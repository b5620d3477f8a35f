package studysvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"daosim/internal/backoff"
	"daosim/internal/core"
	"daosim/internal/ior"
)

// The fleet tests exercise the coordinator's robustness machinery — retry
// on worker loss, down-marking, backoff re-probing, readmission — on stub
// workers, so every scenario is deterministic and cheap under -race. The
// e2e tests cover the same paths with real RemoteWorkers and simulated
// physics.

// fastProbes are fleet timing knobs scaled for tests.
func fastProbes(cfg Config) Config {
	cfg.Probe = backoff.Schedule{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond}
	return cfg
}

// flakyWorker succeeds like stubWorker for `limit` points, then fails at
// the worker level (RunPoint error) until healed. Probe answers health
// according to the healthy flag, modeling a peer that died and later came
// back.
type flakyWorker struct {
	limit   atomic.Int64
	delay   time.Duration
	ran     atomic.Int64 // successful points
	dead    atomic.Bool
	healthy atomic.Bool
}

func (w *flakyWorker) RunPoint(ctx context.Context, j core.PointJob) (core.Point, error) {
	if w.dead.Load() {
		return core.Point{}, errors.New("flaky: connection refused")
	}
	if w.ran.Load() >= w.limit.Load() {
		w.dead.Store(true)
		w.healthy.Store(false)
		return core.Point{}, errors.New("flaky: stream truncated after 0/1 points: unexpected EOF")
	}
	if w.delay > 0 {
		select {
		case <-time.After(w.delay):
		case <-ctx.Done():
			return canceledPoint(j), nil
		}
	}
	w.ran.Add(1)
	v := stubValue(j)
	return core.Point{Nodes: j.Nodes, Ranks: j.Nodes * j.Cfg.PPN, WriteGiBs: v, ReadGiBs: 2 * v}, nil
}

func (w *flakyWorker) Probe(ctx context.Context) error {
	if !w.healthy.Load() {
		return errors.New("flaky: still down")
	}
	w.dead.Store(false)
	return nil
}

// TestWorkerLossRetriesReprobesAndReadmits is the satellite worker-loss
// scenario: a remote worker dies after M points mid-sweep. The coordinator
// must finish the sweep by retrying the lost job on the healthy worker
// (final studies complete and correct), report the retry in the trailer,
// re-probe the down worker with backoff, and readmit it once it answers —
// after which it executes points again.
func TestWorkerLossRetriesReprobesAndReadmits(t *testing.T) {
	flaky := &flakyWorker{}
	flaky.limit.Store(1) // points the flaky worker completes before dying
	srv, ts := startServer(t, fastProbes(Config{
		Members: []Member{
			{Name: "flaky", Worker: flaky},
			// The healthy worker is slow: while it holds a job, the flaky
			// worker is the only free slot, so it is guaranteed to receive
			// jobs (and die) regardless of scheduling order.
			{Name: "steady", Worker: stubWorker{delay: 10 * time.Millisecond}},
		},
	}))

	grid := smallConfig([]core.Variant{{Label: "daos S2", API: ior.APIDFS}})
	grid.Nodes = []int{1, 2, 3, 4, 5, 6}

	client := NewClient(ts.URL)
	studies, err := client.Submit(context.Background(), []core.Config{grid})
	if err != nil {
		t.Fatalf("sweep did not survive worker loss: %v", err)
	}
	verifyStubStudies(t, []core.Config{grid}, studies)

	l := client.Ledger()
	if l.Retries < 1 {
		t.Fatalf("trailer reported no retries after a worker died mid-sweep: %+v", l)
	}
	if !strings.Contains(l.String(), "fleet retried") {
		t.Fatalf("ledger does not surface the retry: %s", l)
	}
	if got := srv.Retries(); got < 1 {
		t.Fatalf("server retry counter = %d, want >= 1", got)
	}

	// The dead worker must be held out of the pool and probed with backoff.
	// (The down flag is set just after the failed job is requeued, so poll.)
	waitFor(t, "failed worker to be marked down and probed", func() bool {
		s := fleetMember(t, srv, "flaky")
		return s.State == "down" && s.Failures >= 1 && s.Probes >= 2
	})

	// Heal the worker: the next probe must readmit it...
	flaky.healthy.Store(true)
	waitFor(t, "down worker to be readmitted", func() bool {
		s := fleetMember(t, srv, "flaky")
		return s.State == "up" && s.Readmissions >= 1
	})

	// ...and it must actually execute points again.
	flaky.limit.Store(1 << 30)
	before := flaky.ran.Load()
	if _, err := client.Submit(context.Background(), []core.Config{grid}); err != nil {
		t.Fatalf("post-readmission sweep failed: %v", err)
	}
	waitFor(t, "readmitted worker to run points", func() bool {
		return flaky.ran.Load() > before
	})
}

// TestAllAttemptsExhaustedFailsThePoint pins the retry bound: when a job
// keeps landing on failing workers, its point fails with a message naming
// the attempts instead of looping forever.
func TestAllAttemptsExhaustedFailsThePoint(t *testing.T) {
	// A worker that always fails at the worker level and has no Probe: it
	// is readmitted after each backoff, so the job bounces until the
	// attempt budget runs out.
	always := workerFunc(func(ctx context.Context, j core.PointJob) (core.Point, error) {
		return core.Point{}, errors.New("synthetic worker death")
	})
	_, ts := startServer(t, fastProbes(Config{
		Members: []Member{{Name: "doomed", Worker: always}},
	}))

	grid := smallConfig([]core.Variant{{Label: "daos S2", API: ior.APIDFS}})
	grid.Nodes = []int{1}

	client := NewClient(ts.URL)
	_, err := client.Submit(context.Background(), []core.Config{grid})
	if err == nil {
		t.Fatal("sweep with no working workers returned nil error")
	}
	if !strings.Contains(err.Error(), "abandoned after 3 attempts") {
		t.Fatalf("abandoned point does not name its attempts: %v", err)
	}
	var pe *core.PointErrors
	if !errors.As(err, &pe) || pe.Count != 1 {
		t.Fatalf("abandonment is not a point failure: %v", err)
	}
}

// workerFunc adapts a function to the Worker interface.
type workerFunc func(ctx context.Context, j core.PointJob) (core.Point, error)

func (f workerFunc) RunPoint(ctx context.Context, j core.PointJob) (core.Point, error) {
	return f(ctx, j)
}

// TestClientCancellationIsNotWorkerDeath pins the attribution split: a
// remote's error caused by the submitting client vanishing must not mark
// the worker down (a canceled exchange says nothing about the peer).
func TestClientCancellationIsNotWorkerDeath(t *testing.T) {
	started := make(chan struct{}, 16)
	blocked := workerFunc(func(ctx context.Context, j core.PointJob) (core.Point, error) {
		started <- struct{}{}
		<-ctx.Done() // a remote exchange erroring out with the cancellation
		return core.Point{}, ctx.Err()
	})
	srv, ts := startServer(t, fastProbes(Config{Members: []Member{{Name: "w", Worker: blocked}}}))

	grid := smallConfig([]core.Variant{{Label: "daos S2", API: ior.APIDFS}})
	grid.Nodes = []int{1}

	ctx, cancel := context.WithCancel(context.Background())
	client := NewClient(ts.URL)
	done := make(chan error, 1)
	go func() {
		_, err := client.Submit(ctx, []core.Config{grid})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled submission returned nil error")
	}
	// The worker must still be up and must not have been charged a failure.
	s := fleetMember(t, srv, "w")
	if s.State != "up" || s.Failures != 0 {
		t.Fatalf("client cancellation was misattributed as worker death: %+v", s)
	}
	if srv.Retries() != 0 {
		t.Fatalf("client cancellation caused %d retries, want 0", srv.Retries())
	}
}

// fleetMember finds one member's status by name.
func fleetMember(t *testing.T, srv *Server, name string) MemberStatus {
	t.Helper()
	for _, m := range srv.Fleet() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("fleet has no member %q: %+v", name, srv.Fleet())
	return MemberStatus{}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStreamSeveredMidStreamIsTruncationError is the satellite regression
// test for a server crash / connection reset mid-point: every truncation
// shape must surface as an explicit error naming how many points arrived —
// never a silently short or half-filled study. (This same detection is what
// a coordinator's RemoteWorker feeds the retry path.)
func TestStreamSeveredMidStreamIsTruncationError(t *testing.T) {
	cfg := smallConfig([]core.Variant{
		{Label: "a", API: ior.APIDFS},
		{Label: "b", API: ior.APIDFS},
	})
	_, jobs := core.Decompose([]core.Config{cfg})
	if len(jobs) != 4 {
		t.Fatalf("test grid decomposed to %d jobs, want 4", len(jobs))
	}

	cases := []struct {
		name  string
		serve func(w http.ResponseWriter) // after the header is written
		want  string
	}{
		{
			// The server process is killed after two complete points: the
			// connection resets under the reader.
			name: "connection severed between points",
			serve: func(w http.ResponseWriter) {
				enc := json.NewEncoder(w)
				for _, j := range jobs[:2] {
					enc.Encode(toWire(j, core.Point{Nodes: j.Nodes}, false))
				}
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler)
			},
			want: "stream truncated after 2/4 points",
		},
		{
			// Killed mid-write: the last NDJSON line is partial.
			name: "partially-written point line",
			serve: func(w http.ResponseWriter) {
				enc := json.NewEncoder(w)
				enc.Encode(toWire(jobs[0], core.Point{Nodes: jobs[0].Nodes}, false))
				io.WriteString(w, `{"study":0,"ser`)
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler)
			},
			want: "stream truncated after 1/4 points",
		},
		{
			// A graceful-but-wrong end: every point arrived, the trailer
			// did not. The batch must not pass as complete.
			name: "missing trailer",
			serve: func(w http.ResponseWriter) {
				enc := json.NewEncoder(w)
				for _, j := range jobs {
					enc.Encode(toWire(j, core.Point{Nodes: j.Nodes}, false))
				}
			},
			want: "stream missing trailer",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("POST "+PathSubmit, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", ContentType)
				w.WriteHeader(http.StatusOK)
				json.NewEncoder(w).Encode(Header{Points: len(jobs), Studies: 1})
				tc.serve(w)
			})
			ts := httptest.NewServer(mux)
			defer ts.Close()

			client := NewClient(ts.URL)
			studies, err := client.Submit(context.Background(), []core.Config{cfg})
			if studies != nil {
				t.Fatalf("severed stream returned a study (half-filled results): %+v", studies)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("severed stream error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestSubmitReusesConnection: a stream's trailer leaves in one write
// with the response's end, so the client's read of the trailer ends the
// response and back-to-back submissions share one keep-alive connection,
// journaled or not. A response that ended after its flushed trailer (a
// journaled batch retires in between) made the client drop the
// connection and dial again for the next batch.
func TestSubmitReusesConnection(t *testing.T) {
	cfgs := durableConfigs()
	for _, durable := range []bool{false, true} {
		cfg := Config{Workers: 1, NewWorker: func() Worker { return stubWorker{} }}
		if durable {
			store := openStore(t, t.TempDir())
			defer store.Close()
			cfg.Store = store
		}
		_, ts := startServer(t, cfg)
		var dials atomic.Int64
		client := NewClient(ts.URL)
		client.HTTP = &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				dials.Add(1)
				return (&net.Dialer{}).DialContext(ctx, network, addr)
			},
		}}
		for i := 0; i < 5; i++ {
			if _, err := client.Submit(context.Background(), cfgs); err != nil {
				t.Fatalf("durable=%v: Submit %d: %v", durable, i, err)
			}
		}
		client.HTTP.CloseIdleConnections()
		if n := dials.Load(); n != 1 {
			t.Fatalf("durable=%v: 5 submissions dialed %d connections, want 1", durable, n)
		}
	}
}

// TestCloseVsSubmitRace is the satellite drain-race hammer: submissions
// racing Server.Close must each either complete, be refused with the 503
// draining body, or fail with an explicit truncation/transport error —
// never hang, drop jobs silently, or panic. Run under -race in CI.
func TestCloseVsSubmitRace(t *testing.T) {
	srv := New(Config{Workers: 2, NewWorker: func() Worker { return stubWorker{} }})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	grid := smallConfig([]core.Variant{{Label: "daos S2", API: ior.APIDFS}})
	var wg sync.WaitGroup
	start := make(chan struct{})
	errCh := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			client := NewClient(ts.URL)
			for k := 0; k < 10000; k++ {
				if _, err := client.Submit(context.Background(), []core.Config{grid}); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- fmt.Errorf("hammer goroutine outlived Close")
		}()
	}
	close(start)
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	wg.Wait()
	close(errCh)

	for err := range errCh {
		msg := err.Error()
		switch {
		case strings.Contains(msg, "server draining"): // lost the race: clean 503
		case strings.Contains(msg, "stream truncated"),
			strings.Contains(msg, "stream missing trailer"),
			strings.Contains(msg, "stream ended early"): // mid-stream at Close: explicit truncation
		case strings.Contains(msg, "abandoned"): // retried job met the drain
		case strings.Contains(msg, "connection"), strings.Contains(msg, "EOF"): // transport-level sever
		default:
			t.Fatalf("submission racing Close failed in a non-drain way: %v", err)
		}
	}

	// After Close the rejection is deterministic: a 503 naming the drain,
	// before any stream bytes.
	resp, err := http.Post(ts.URL+PathSubmit, "application/json", strings.NewReader(`{"configs":[{"Workload":"easy"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close: got %s, want 503", resp.Status)
	}
	if !strings.Contains(string(body), "server draining") {
		t.Fatalf("draining rejection body = %q, want it to name the drain", body)
	}
	// Idempotent Close must not panic or deadlock.
	srv.Close()
}

// TestHungPeerTimesOut is the satellite timeout test: a listener that
// accepts connections but never answers must fail Health (and the Submit
// setup) within the transport's header timeout instead of blocking a
// probe — or a coordinator slot — forever.
func TestHungPeerTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, c) }() // swallow the request, never reply
		}
	}()

	client := NewClient(ln.Addr().String())
	client.HTTP = newHTTPClient(time.Second, 100*time.Millisecond)
	// Timeouts are transient (and would be retried with backoff); this
	// test pins that the timeout itself fires, so spend only one attempt.
	client.RetryAttempts = 1

	start := time.Now()
	if err := client.Health(context.Background()); err == nil {
		t.Fatal("Health against a hung listener returned nil")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("Health blocked %v on a hung listener; the header timeout did not fire", waited)
	}

	start = time.Now()
	grid := smallConfig([]core.Variant{{Label: "daos S2", API: ior.APIDFS}})
	if _, err := client.Submit(context.Background(), []core.Config{grid}); err == nil {
		t.Fatal("Submit against a hung listener returned nil")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("Submit blocked %v on a hung listener; the header timeout did not fire", waited)
	}
}

// TestNewClientInstallsTimeouts pins the satellite default: NewClient must
// not hand out a transport that can hang forever on connect or on the
// response header. (Streams themselves stay unbounded — that is separately
// pinned by the long-running e2e sweeps, which outlast any header timeout.)
func TestNewClientInstallsTimeouts(t *testing.T) {
	c := NewClient("127.0.0.1:9464")
	if c.HTTP == nil {
		t.Fatal("NewClient left HTTP nil")
	}
	tr, ok := c.HTTP.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("NewClient transport is %T, want *http.Transport", c.HTTP.Transport)
	}
	if tr.ResponseHeaderTimeout != DefaultHeaderTimeout {
		t.Fatalf("ResponseHeaderTimeout = %v, want %v", tr.ResponseHeaderTimeout, DefaultHeaderTimeout)
	}
	if tr.DialContext == nil {
		t.Fatal("NewClient transport has no bounded dialer")
	}
	if c.HTTP.Timeout != 0 {
		t.Fatalf("NewClient set an overall Timeout (%v); streams must stay unbounded", c.HTTP.Timeout)
	}
}

// TestDefaultSchedules pins the documented retry defaults: NewClient
// reconnects over 8 attempts waiting 100ms doubling to 2s, and New
// re-probes a down worker at 100ms doubling to 5s. (TestRemoteTierDefaults
// in internal/cache pins the remote cache tier's.)
func TestDefaultSchedules(t *testing.T) {
	c := NewClient("127.0.0.1:9464")
	if want := (backoff.Schedule{Base: 100 * time.Millisecond, Max: 2 * time.Second}); c.Retry != want {
		t.Errorf("NewClient retry schedule = %+v, want %+v", c.Retry, want)
	}
	if c.RetryAttempts != 8 {
		t.Errorf("NewClient retry attempts = %d, want 8", c.RetryAttempts)
	}
	srv := New(Config{Workers: 1})
	defer srv.Close()
	if want := (backoff.Schedule{Base: 100 * time.Millisecond, Max: 5 * time.Second}); srv.cfg.Probe != want {
		t.Errorf("New probe schedule = %+v, want %+v", srv.cfg.Probe, want)
	}
}

// TestRemoteWorkerExecutesOnPeer pins the coordinator-to-worker leg in
// isolation: a RemoteWorker must return the peer's result for the exact
// job (point-level failures included, as results), and must return a
// worker-level error — not a fabricated point — when the peer is gone.
func TestRemoteWorkerExecutesOnPeer(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, NewWorker: func() Worker { return stubWorker{} }})
	w := NewRemoteWorker(ts.URL)

	_, jobs := core.Decompose([]core.Config{smallConfig([]core.Variant{{Label: "daos S2", API: ior.APIDFS}})})
	j := jobs[1]
	pt, err := w.RunPoint(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if v := stubValue(j); pt.WriteGiBs != v || pt.ReadGiBs != 2*v || pt.Nodes != j.Nodes {
		t.Fatalf("remote point = %+v, want write=%v", pt, v)
	}

	// A point that fails on the peer is a result, not a worker error.
	bad := workerFunc(func(ctx context.Context, j core.PointJob) (core.Point, error) {
		return core.Point{Nodes: j.Nodes, Err: "peer-side point failure"}, nil
	})
	_, badTS := startServer(t, Config{Members: []Member{{Name: "bad", Worker: bad}}})
	pt, err = NewRemoteWorker(badTS.URL).RunPoint(context.Background(), j)
	if err != nil {
		t.Fatalf("peer-side point failure came back as a worker error: %v", err)
	}
	if pt.Err != "peer-side point failure" {
		t.Fatalf("peer-side point failure lost: %+v", pt)
	}

	// A dead peer is a worker error.
	deadTS := httptest.NewServer(nil)
	deadTS.Close()
	if _, err := NewRemoteWorker(deadTS.URL).RunPoint(context.Background(), j); err == nil {
		t.Fatal("RunPoint against a dead peer returned nil error")
	}
}

// blackholeProber is a worker whose points always fail and whose health
// probe hangs until its context is cancelled — modeling a peer that accepts
// TCP but never answers /v1/healthz. probing signals (once, non-blocking)
// when a probe is in flight.
type blackholeProber struct {
	probing chan struct{}
}

func (w *blackholeProber) RunPoint(ctx context.Context, j core.PointJob) (core.Point, error) {
	return core.Point{}, errors.New("blackhole: connection reset")
}

func (w *blackholeProber) Probe(ctx context.Context) error {
	select {
	case w.probing <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return ctx.Err()
}

// TestCloseCancelsInFlightProbes is the satellite probe-shutdown regression
// (run under -race in CI): a down member whose health probe is wedged must
// not survive Server.Close. Close cancels the server's probe context, so
// the in-flight probe returns immediately — instead of riding out its 5s
// probeTimeout and stalling the drain — and the member's pool goroutine
// exits, returning the process to its pre-server goroutine count.
func TestCloseCancelsInFlightProbes(t *testing.T) {
	tr := &http.Transport{}
	httpc := &http.Client{Transport: tr}
	baseline := runtime.NumGoroutine()

	bh := &blackholeProber{probing: make(chan struct{}, 1)}
	srv := New(fastProbes(Config{
		Members: []Member{
			{Name: "blackhole", Worker: bh},
			// The healthy worker is slow, so the blackhole member is the
			// free slot and is guaranteed to receive (and fail) a job.
			{Name: "steady", Worker: stubWorker{delay: 10 * time.Millisecond}},
		},
	}))
	ts := httptest.NewServer(srv)
	client := NewClient(ts.URL)
	client.HTTP = httpc

	grid := smallConfig([]core.Variant{{Label: "daos S2", API: ior.APIDFS}})
	grid.Nodes = []int{1, 2, 3, 4}
	// The sweep itself must ride through the dead worker via retries...
	if _, err := client.Submit(context.Background(), []core.Config{grid}); err != nil {
		t.Fatalf("sweep did not survive the dead worker: %v", err)
	}
	// ...leaving the blackhole member down, with a probe wedged in flight.
	<-bh.probing

	start := time.Now()
	ts.Close()
	srv.Close()
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("Close blocked %v on a wedged probe; the probe context was not cancelled", waited)
	}
	tr.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("probe goroutines leaked after Close: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestProbeWaitJitterBounds pins the jitter contract: every re-probe wait
// falls in [backoff/2, backoff] — bounded readmission latency — and two
// members draw different sequences, so a fleet of coordinators does not
// probe a recovering peer in lockstep.
func TestProbeWaitJitterBounds(t *testing.T) {
	a, b := probeRNG("peer-a"), probeRNG("peer-b")
	backoff := 100 * time.Millisecond
	identical := true
	for i := 0; i < 1000; i++ {
		wa, wb := probeWait(a, backoff), probeWait(b, backoff)
		for _, w := range []time.Duration{wa, wb} {
			if w < backoff/2 || w > backoff {
				t.Fatalf("wait %v outside [%v, %v]", w, backoff/2, backoff)
			}
		}
		if wa != wb {
			identical = false
		}
	}
	if identical {
		t.Fatal("two members drew identical jitter sequences")
	}
	// A degenerate backoff must neither panic nor exceed the nominal wait.
	if w := probeWait(probeRNG("x"), 1); w != 1 {
		t.Fatalf("degenerate backoff wait = %v", w)
	}
}

// TestSubmitJobsRoundTrip pins the /v1/points protocol leg directly:
// pre-decomposed jobs execute on the peer's pool with their shipped seeds
// and come back in input order; an empty batch is rejected.
func TestSubmitJobsRoundTrip(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2, NewWorker: func() Worker { return stubWorker{} }})
	client := NewClient(ts.URL)

	_, jobs := core.Decompose([]core.Config{smallConfig([]core.Variant{
		{Label: "a", API: ior.APIDFS},
		{Label: "b", API: ior.APIDFS},
	})})
	pts, err := client.SubmitJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(jobs) {
		t.Fatalf("got %d points for %d jobs", len(pts), len(jobs))
	}
	for i, j := range jobs {
		if v := stubValue(j); pts[i].WriteGiBs != v || pts[i].Nodes != j.Nodes {
			t.Fatalf("job %d came back wrong: %+v (want write=%v)", i, pts[i], v)
		}
	}

	resp, err := http.Post(ts.URL+PathSubmitPoints, "application/json", strings.NewReader(`{"jobs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty job batch: got %s, want 400", resp.Status)
	}
}
