package studysvc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"daosim/internal/backoff"
	"daosim/internal/cache"
	"daosim/internal/core"
	"daosim/internal/ior"
	"daosim/internal/jobstore"
)

// The durable tests run the kill -9 story on stub workers: a journaled
// batch interrupted mid-sweep must be recovered by a restarted server
// with zero re-simulation of its completed points, and the resuming
// client must reassemble output byte-identical to an uninterrupted run.

// openStore opens a jobstore under a fresh (or given) dir.
func openStore(t *testing.T, dir string) *jobstore.Store {
	t.Helper()
	s, err := jobstore.Open(dir)
	if err != nil {
		t.Fatalf("jobstore.Open(%s): %v", dir, err)
	}
	return s
}

// gatedWorker blocks each RunPoint on a token from gate (close gate to
// let everything through) and counts executions — the instrument that
// proves zero re-simulation.
type gatedWorker struct {
	gate <-chan struct{}
	runs *atomic.Int64
}

func (w gatedWorker) RunPoint(ctx context.Context, j core.PointJob) (core.Point, error) {
	<-w.gate
	w.runs.Add(1)
	return stubWorker{}.RunPoint(ctx, j)
}

func durableConfigs() []core.Config {
	return []core.Config{
		smallConfig([]core.Variant{{Label: "daos S2", API: ior.APIDFS}, {Label: "daos SX", API: ior.APIDFS}}),
		smallConfig([]core.Variant{{Label: "hdf5", API: ior.APIHDF5}}),
	}
}

// TestDurableSubmitRoundTrip: a durable server completes a batch like a
// storeless one — correct reassembly, dense 1-based seqs — and retires
// it from the journal once the trailer is delivered.
func TestDurableSubmitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	defer store.Close()
	srv, ts := startServer(t, Config{
		Workers:   2,
		NewWorker: func() Worker { return stubWorker{} },
		Store:     store,
	})

	cfgs := durableConfigs()
	client := NewClient(ts.URL)
	var seqs []int
	client.OnPoint = func(sp StreamPoint) { seqs = append(seqs, sp.Seq) }
	studies, err := client.Submit(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	verifyStubStudies(t, cfgs, studies)

	_, jobs := core.Decompose(cfgs)
	if len(seqs) != len(jobs) {
		t.Fatalf("observed %d points, want %d", len(seqs), len(jobs))
	}
	for i, seq := range seqs {
		if seq != i+1 {
			t.Fatalf("seq[%d] = %d, want dense 1-based delivery order", i, seq)
		}
	}

	// Retirement happens just after the trailer is flushed to the
	// client, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := client.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Durability == nil {
			t.Fatal("durable server reported no durability stats")
		}
		if st.Durability.JournaledBatches != 1 {
			t.Fatalf("durability stats = %+v, want 1 journaled", st.Durability)
		}
		if st.Durability.LiveBatches == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never retired: %+v", st.Durability)
		}
		time.Sleep(time.Millisecond)
	}

	// The delivered trailer retired the batch: a reopened journal holds
	// nothing to recover.
	srv.Close()
	store.Close()
	reopened := openStore(t, dir)
	defer reopened.Close()
	if n := len(reopened.Recovered()); n != 0 {
		t.Fatalf("journal still holds %d batches after a completed stream", n)
	}
}

// TestJournalSyncsPerBatch pins the journal's fsync cost on a one-slot
// server with one client. A cold batch costs its batch record, one commit
// per miss, and its retirement: points + 2. A warm rerun journals all of
// its cache hits in one commit: exactly 3.
func TestJournalSyncsPerBatch(t *testing.T) {
	c, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := openStore(t, t.TempDir())
	defer store.Close()
	_, ts := startServer(t, Config{
		Workers:   1,
		NewWorker: func() Worker { return stubWorker{} },
		Cache:     c,
		Store:     store,
	})
	cfgs := durableConfigs()
	_, jobs := core.Decompose(cfgs)
	client := NewClient(ts.URL)
	// retiredSyncs waits for the last batch to retire, which happens just
	// after its trailer is flushed, and returns the fsyncs so far.
	retiredSyncs := func() int64 {
		var d *DurabilityStats
		waitFor(t, "the batch to retire", func() bool {
			st, err := client.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			d = st.Durability
			return d.LiveBatches == 0
		})
		return d.JournalSyncs
	}
	last := retiredSyncs()
	for _, pass := range []struct {
		name string
		want int64
	}{{"cold", int64(len(jobs)) + 2}, {"warm", 3}} {
		if _, err := client.Submit(context.Background(), cfgs); err != nil {
			t.Fatalf("%s Submit: %v", pass.name, err)
		}
		syncs := retiredSyncs()
		if got := syncs - last; got != pass.want {
			t.Errorf("%s batch of %d points cost %d journal fsyncs, want %d", pass.name, len(jobs), got, pass.want)
		}
		last = syncs
	}
}

// TestEphemeralStreamCarriesSeq: the storeless path assigns the same
// dense delivery sequence (resume is impossible, but the axis is there).
func TestEphemeralStreamCarriesSeq(t *testing.T) {
	_, ts := startServer(t, Config{
		Workers:   1,
		NewWorker: func() Worker { return stubWorker{} },
	})
	client := NewClient(ts.URL)
	var seqs []int
	client.OnPoint = func(sp StreamPoint) { seqs = append(seqs, sp.Seq) }
	if _, err := client.Submit(context.Background(), durableConfigs()[:1]); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i, seq := range seqs {
		if seq != i+1 {
			t.Fatalf("seq[%d] = %d, want %d", i, seq, i+1)
		}
	}
}

// TestKillRestartResume is the acceptance e2e: SIGKILL the coordinator
// mid-sweep with a live client streaming, restart it on the same store
// and address, and require (a) the client auto-resumes and completes,
// (b) the restarted server re-simulates only the points that had not
// landed, and (c) the reassembled output is byte-identical to an
// uninterrupted run of the same grid.
func TestKillRestartResume(t *testing.T) {
	cfgs := durableConfigs()
	_, jobs := core.Decompose(cfgs)
	total := len(jobs)
	if total/3 == 0 {
		t.Fatalf("grid too small: %d points", total)
	}

	// The uninterrupted reference run, on an ordinary stub server.
	_, refTS := startServer(t, Config{Workers: 2, NewWorker: func() Worker { return stubWorker{} }})
	refStudies, err := NewClient(refTS.URL).Submit(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("reference Submit: %v", err)
	}
	want := render(refStudies)

	for _, tc := range []struct {
		name string
		// hits are the positions pre-filled in both servers' caches; with
		// none, the servers run without a cache.
		hits []int
		// tokens is how many points server 1 may simulate, before how
		// many points the client holds when the kill lands, and commits
		// how many journal appends carried those points.
		tokens, before, commits int
	}{
		// Every point is a miss and commits on its own.
		{name: "cold", tokens: total / 3, before: total / 3, commits: total / 3},
		// Hits 0 and 1 commit together before miss 2 waits for the one
		// slot, miss 2 commits on its own, and hit 4 commits before miss 5
		// waits. Misses 3 (gated in the slot) and 5 (queued) never land.
		{name: "half warm", hits: []int{0, 1, 4}, tokens: 1, before: 4, commits: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hit := make([]bool, total)
			for _, pos := range tc.hits {
				hit[pos] = true
			}
			// newCache returns nil without hits, and otherwise a memory
			// cache holding the stub's results for them.
			newCache := func() *cache.Cache {
				if tc.hits == nil {
					return nil
				}
				c, err := cache.New(cache.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, pos := range tc.hits {
					pt, _ := stubWorker{}.RunPoint(context.Background(), jobs[pos])
					c.Put(jobs[pos].Key(), pt.CacheEntry())
				}
				return c
			}

			dir := t.TempDir()
			store1 := openStore(t, dir)
			opened := store1.Syncs()

			var runs1, runs2 atomic.Int64
			gate1 := make(chan struct{}, total)
			var gate1Once sync.Once
			releaseAll1 := func() { gate1Once.Do(func() { close(gate1) }) }

			srv1 := New(Config{
				Workers:   1, // single slot: deterministic completion count at kill time
				NewWorker: func() Worker { return gatedWorker{gate: gate1, runs: &runs1} },
				Cache:     newCache(),
				Store:     store1,
			})
			// Close drains the pool, so the gate must open before it runs
			// (defers are LIFO: releaseAll1 fires first).
			defer srv1.Close()
			defer releaseAll1()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			hs1 := &http.Server{Handler: srv1}
			go hs1.Serve(ln)

			client := NewClient(addr)
			client.Retry = backoff.Schedule{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond}
			client.RetryAttempts = 50 // ride out the restart gap generously
			var received atomic.Int64
			var retries atomic.Int64
			client.OnPoint = func(StreamPoint) { received.Add(1) }
			client.OnRetry = func(int, time.Duration, error) { retries.Add(1) }

			type result struct {
				studies []*core.Study
				err     error
			}
			done := make(chan result, 1)
			go func() {
				studies, err := client.Submit(context.Background(), cfgs)
				done <- result{studies, err}
			}()

			// Let exactly tc.tokens points execute, and tc.before points
			// reach the client.
			for i := 0; i < tc.tokens; i++ {
				gate1 <- struct{}{}
			}
			waitFor(t, fmt.Sprintf("%d points at the client before the kill", tc.before), func() bool {
				return received.Load() >= int64(tc.before)
			})
			if got := store1.Syncs() - opened; got != int64(1+tc.commits) {
				t.Fatalf("journal fsyncs before the kill = %d, want %d (batch record + %d commits)", got, 1+tc.commits, tc.commits)
			}

			// "kill -9": stop the scheduler with no drain, sever every client
			// connection, free the port. Nothing is journaled past this
			// instant.
			srv1.kill()
			hs1.Close()
			store1.Close()

			// Restart on the same journal and the same address, ungated.
			store2 := openStore(t, dir)
			defer store2.Close()
			if got := len(store2.Recovered()); got != 1 {
				t.Fatalf("journal recovered %d batches, want 1", got)
			}
			journaled := store2.Recovered()[0].Points
			if len(journaled) != tc.before {
				t.Fatalf("journal recovered %d completed points, want %d", len(journaled), tc.before)
			}
			inJournal := make([]bool, total)
			for _, pr := range journaled {
				if pr.CacheHit != hit[pr.Pos] {
					t.Fatalf("journaled position %d with cache_hit=%v, want %v", pr.Pos, pr.CacheHit, hit[pr.Pos])
				}
				inJournal[pr.Pos] = true
			}
			lacked := 0 // misses the journal lacks: what server 2 must simulate
			for pos := range jobs {
				if !inJournal[pos] && !hit[pos] {
					lacked++
				}
			}
			gate2 := make(chan struct{})
			close(gate2)
			srv2 := New(Config{
				Workers:   2,
				NewWorker: func() Worker { return gatedWorker{gate: gate2, runs: &runs2} },
				Cache:     newCache(),
				Store:     store2,
			})
			defer srv2.Close()
			ln2, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("rebind %s: %v", addr, err)
			}
			hs2 := &http.Server{Handler: srv2}
			go hs2.Serve(ln2)
			defer hs2.Close()

			rb, rp, re := srv2.Recovery()
			if rb != 1 || rp != tc.before || re != total-tc.before {
				t.Fatalf("Recovery() = (%d,%d,%d), want (1,%d,%d)", rb, rp, re, tc.before, total-tc.before)
			}

			res := <-done
			if res.err != nil {
				t.Fatalf("resumed Submit failed: %v", res.err)
			}
			if retries.Load() == 0 {
				t.Fatal("Submit completed without a single reconnect — the kill never reached the client")
			}
			verifyStubStudies(t, cfgs, res.studies)
			if got := render(res.studies); got != want {
				t.Fatalf("resumed run renders differently from the uninterrupted run:\n got: %q\nwant: %q", got, want)
			}

			// Zero re-simulation: the restarted server executed exactly the
			// misses the journal did not hold. (Server 1 may still count its
			// one in-flight point when the deferred gate release lets it
			// finish; the assertion is on server 2.)
			if got := runs2.Load(); got != int64(lacked) {
				t.Fatalf("restarted server simulated %d points, want %d (journaled points must replay, not re-run)",
					got, lacked)
			}

			// The resume leg is visible in the durability counters.
			st, err := NewClient(addr).Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Durability == nil || st.Durability.ResumedStreams == 0 {
				t.Fatalf("durability stats after resume = %+v, want resumed_streams > 0", st.Durability)
			}
			if st.Durability.ReplayedPoints != tc.before {
				t.Fatalf("replayed_points = %d, want %d", st.Durability.ReplayedPoints, tc.before)
			}
		})
	}
}

// TestCloseNeverJournalsCancellations is the drain regression test: a
// graceful Close at a random instant mid-batch must not journal the
// placeholder results of the points it interrupted ("submission canceled
// before the point ran"). A restarted daosd would replay such a record
// as a failed point instead of re-running it.
func TestCloseNeverJournalsCancellations(t *testing.T) {
	variants := make([]core.Variant, 6)
	for i := range variants {
		variants[i] = core.Variant{Label: fmt.Sprintf("v%d", i), API: ior.APIDFS}
	}
	grid := smallConfig(variants)
	grid.Nodes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cfgs := []core.Config{grid}
	if _, jobs := core.Decompose(cfgs); len(jobs) != 60 {
		t.Fatalf("grid decomposed to %d points, want 60", len(jobs))
	}

	for it := 0; it < 50; it++ {
		dir := t.TempDir()
		store := openStore(t, dir)
		srv := New(Config{
			Workers:   1,
			NewWorker: func() Worker { return stubWorker{delay: 5 * time.Millisecond} },
			Store:     store,
		})
		ts := httptest.NewServer(srv)
		client := NewClient(ts.URL)
		client.RetryAttempts = 1 // the Close below severs the stream for good
		var landed atomic.Int64
		client.OnPoint = func(StreamPoint) { landed.Add(1) }
		submitted := make(chan struct{})
		go func() {
			defer close(submitted)
			client.Submit(context.Background(), cfgs)
		}()

		waitFor(t, "the first points", func() bool { return landed.Load() >= 3 })
		time.Sleep(rand.N(10 * time.Millisecond))
		srv.Close()
		<-submitted
		ts.Close()
		// daosd reports its drain summary between Server.Close and its
		// deferred store.Close; give straggling goroutines that long.
		time.Sleep(5 * time.Millisecond)
		store.Close()

		reopened := openStore(t, dir)
		for _, rb := range reopened.Recovered() {
			for _, pr := range rb.Points {
				if pr.Point.Err != "" {
					t.Fatalf("iteration %d: Close journaled position %d as a failed point (%q)", it, pr.Pos, pr.Point.Err)
				}
			}
		}
		reopened.Close()
	}
}

// TestResumeUnknownBatchIs404: re-attaching to a batch the journal never
// heard of (or already retired) is a permanent 404, not a hang or retry.
func TestResumeUnknownBatchIs404(t *testing.T) {
	store := openStore(t, t.TempDir())
	defer store.Close()
	_, ts := startServer(t, Config{
		Workers:   1,
		NewWorker: func() Worker { return stubWorker{} },
		Store:     store,
	})
	resp, err := http.Get(ts.URL + PathSubmit + "/no-such-batch?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("resume of unknown batch: got %s, want 404", resp.Status)
	}
}

// TestRePostReattaches: re-POSTing a batch id the server already runs
// must attach to the existing batch, not schedule a duplicate.
func TestRePostReattaches(t *testing.T) {
	store := openStore(t, t.TempDir())
	defer store.Close()
	srv, _ := startServer(t, Config{
		Workers:   1,
		NewWorker: func() Worker { return stubWorker{} },
		Store:     store,
	})
	cfgs := durableConfigs()
	b1, created1 := srv.openBatch(srv.ctx, "batch-x", cfgs)
	b2, created2 := srv.openBatch(srv.ctx, "batch-x", cfgs)
	if !created1 || created2 {
		t.Fatalf("openBatch created = (%v,%v), want (true,false)", created1, created2)
	}
	if b1 != b2 {
		t.Fatal("re-POST opened a second batchState for the same id")
	}
}

// TestSubmitRetriesTransient503: a coordinator answering 503 (draining,
// or mid-restart behind a proxy) is retried with backoff until it
// accepts, and the sweep completes normally.
func TestSubmitRetriesTransient503(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 1, NewWorker: func() Worker { return stubWorker{} }})
	var rejected atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rejected.Load() < 2 && r.Method == http.MethodPost {
			rejected.Add(1)
			http.Error(w, "studysvc: server draining", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer front.Close()

	client := NewClient(front.URL)
	client.Retry = backoff.Schedule{Base: time.Millisecond, Max: 5 * time.Millisecond}
	var retries []int
	client.OnRetry = func(attempt int, wait time.Duration, err error) {
		if !strings.Contains(err.Error(), "draining") {
			t.Errorf("retry %d for unexpected error: %v", attempt, err)
		}
		retries = append(retries, attempt)
	}
	cfgs := durableConfigs()[:1]
	studies, err := client.Submit(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("Submit through flaky front: %v", err)
	}
	verifyStubStudies(t, cfgs, studies)
	if len(retries) != 2 {
		t.Fatalf("observed %d retries, want 2", len(retries))
	}
}

// TestRetryClassification pins the transient/permanent split the
// studyctl satellite depends on: refused/reset/timeout connects retry,
// address errors and rejections do not.
func TestRetryClassification(t *testing.T) {
	c := NewClient("127.0.0.1:1")
	ctx := context.Background()
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	wrap := func(err error) error {
		return &url.Error{Op: "Post", URL: "http://127.0.0.1:1/v1/studies", Err: err}
	}
	cases := []struct {
		name     string
		ctx      context.Context
		err      error
		batch    string
		received int
		want     bool
	}{
		{"connect refused", ctx, wrap(&net.OpError{Op: "dial", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}), "", 0, true},
		{"connection reset", ctx, wrap(&net.OpError{Op: "read", Err: os.NewSyscallError("read", syscall.ECONNRESET)}), "", 0, true},
		{"header timeout", ctx, wrap(&timeoutErr{}), "", 0, true},
		{"eof before header", ctx, fmt.Errorf("read stream header: %w", io.ErrUnexpectedEOF), "", 0, true},
		{"dns not found", ctx, wrap(&net.DNSError{Err: "no such host", IsNotFound: true}), "", 0, false},
		{"caller canceled", canceled, wrap(context.Canceled), "", 0, false},
		{"rejected 400", ctx, &statusError{code: 400, msg: "bad"}, "", 0, false},
		{"draining 503", ctx, &statusError{code: 503, msg: "draining"}, "", 0, true},
		{"resume 404", ctx, &statusError{code: 404, msg: "unknown batch"}, "b1", 3, false},
		{"ephemeral mid-stream loss", ctx, errors.New("stream truncated after 3/9 points: unexpected EOF"), "", 3, false},
		{"durable mid-stream loss", ctx, fmt.Errorf("stream truncated after 3/9 points: %w", io.ErrUnexpectedEOF), "b1", 3, true},
	}
	for _, tc := range cases {
		if got := c.shouldRetry(tc.ctx, tc.err, tc.batch, tc.received); got != tc.want {
			t.Errorf("%s: shouldRetry = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// timeoutErr is a net.Error that reports timeout — the
// ResponseHeaderTimeout shape.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "timeout awaiting response headers" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }
