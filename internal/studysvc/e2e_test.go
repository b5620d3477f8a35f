package studysvc

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"daosim/internal/backoff"
	"daosim/internal/cache"
	"daosim/internal/core"
	"daosim/internal/ior"
)

// The end-to-end harness pins the service's whole contract: a batch
// submitted over the wire must reassemble into studies whose Table and CSV
// output is byte-identical to a direct core.Runner run of the same configs
// — cold (every point simulated by the worker pool) and warm (every point
// replayed from the server's cache, reported as 100% hits in the trailer).
// This is the PR 2 determinism-harness pattern lifted onto the protocol:
// byte-identity across the wire is tested, never assumed.

// quickFigureConfigs returns the Quick-scale Figure 1 + Figure 2 grids, the
// same grids bench.Figure1/Figure2 submit at bench.Quick. In -short mode
// (the 1-core CI race job) only the Figure 2 grid runs; the full grids are
// covered by the plain test job and by TestBinaries (internal/integration).
func quickFigureConfigs(t *testing.T) []core.Config {
	quickNodes := []int{1, 4}
	fig2 := core.Config{Workload: "hard", Nodes: quickNodes, Variants: core.HardVariants()}
	if testing.Short() {
		return []core.Config{fig2}
	}
	fig1 := core.Config{Workload: "easy", Nodes: quickNodes, Variants: core.EasyVariants()}
	return []core.Config{fig1, fig2}
}

// render captures everything a study prints: both table panels plus CSV.
func render(studies []*core.Study) string {
	var b strings.Builder
	for _, st := range studies {
		b.WriteString(st.Table(true))
		b.WriteString(st.Table(false))
		b.WriteString(st.CSV())
	}
	return b.String()
}

// startServer boots a studysvc server on a loopback listener.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func TestE2EByteIdenticalColdAndWarm(t *testing.T) {
	cfgs := quickFigureConfigs(t)

	direct, err := (&core.Runner{}).RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	want := render(direct)

	c, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{Workers: 2, Cache: c})

	points := 0
	for _, st := range direct {
		points += len(st.Series) * len(st.Config.Nodes)
	}

	// Cold: every point is simulated by the pool and stored.
	cold := NewClient(ts.URL)
	coldStudies, err := cold.Submit(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(coldStudies); got != want {
		t.Fatalf("cold server run diverged from direct run:\n--- direct ---\n%s--- server ---\n%s", want, got)
	}
	if l := cold.Ledger(); !l.CacheEnabled || l.CacheHits != 0 || l.CacheMisses != points {
		t.Fatalf("cold ledger: want 0/%d hits, got %+v", points, l)
	}

	// Warm: the identical batch must be answered entirely from the cache.
	warm := NewClient(ts.URL)
	warmStudies, err := warm.Submit(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(warmStudies); got != want {
		t.Fatalf("warm server run diverged from direct run:\n--- direct ---\n%s--- server ---\n%s", want, got)
	}
	l := warm.Ledger()
	if l.CacheHits != points || l.CacheMisses != 0 {
		t.Fatalf("warm run did not hit 100%%: %+v", l)
	}
	if !strings.Contains(l.String(), "(100.0% hits)") {
		t.Fatalf("warm ledger missing the 100%%-hits marker TestBinaries checks: %s", l)
	}
}

// TestE2EUncachedServer proves the cache is an accelerator, not a
// dependency: a server with no cache still streams byte-identical results.
func TestE2EUncachedServer(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestE2EByteIdenticalColdAndWarm; skipping the extra full-simulation pass in -short")
	}
	cfgs := quickFigureConfigs(t)[:1]
	direct, err := (&core.Runner{}).RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{Workers: 2})
	client := NewClient(ts.URL)
	studies, err := client.Submit(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(studies), render(direct); got != want {
		t.Fatalf("uncached server run diverged:\n--- direct ---\n%s--- server ---\n%s", want, got)
	}
	if l := client.Ledger(); l.CacheEnabled {
		t.Fatalf("cache-less server claimed a cache: %+v", l)
	}
}

// TestE2EPointFailuresPropagate pins the error contract across the wire: a
// failing point must not abort the batch, its Err must land in the study,
// and the client's joined error must read exactly like core.Runner's.
func TestE2EPointFailuresPropagate(t *testing.T) {
	cfgs := []core.Config{smallConfig([]core.Variant{
		{Label: "good", API: ior.APIDFS},
		{Label: "broken", API: ior.API("BOGUS")},
	})}

	direct, directErr := (&core.Runner{}).RunAll(cfgs)
	if directErr == nil {
		t.Fatal("direct run of a broken variant did not error")
	}

	_, ts := startServer(t, Config{Workers: 2})
	client := NewClient(ts.URL)
	studies, err := client.Submit(context.Background(), cfgs)
	if err == nil {
		t.Fatal("server run of a broken variant did not error")
	}
	if err.Error() != directErr.Error() {
		t.Fatalf("joined error diverged across the wire:\n--- direct ---\n%v\n--- server ---\n%v", directErr, err)
	}
	if got, want := render(studies), render(direct); got != want {
		t.Fatalf("partial results diverged:\n--- direct ---\n%s--- server ---\n%s", want, got)
	}
	if l := client.Ledger(); l.Errors != len(cfgs[0].Nodes) {
		t.Fatalf("trailer error count: want %d, got %+v", len(cfgs[0].Nodes), l)
	}
}

// TestE2EFleetByteIdenticalColdAndWarm is the tentpole acceptance test: a
// pure coordinator (no local slots) dispatching to two loopback worker
// daosds must render the quick figure grids byte-identically to a direct
// in-process run — cold (every point shipped to a peer over /v1/points)
// and warm (every point replayed from the coordinator's cache).
func TestE2EFleetByteIdenticalColdAndWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulation fleet e2e; the -race -short job covers the fleet scheduler via the stub tests in fleet_test.go")
	}
	cfgs := quickFigureConfigs(t)
	direct, err := (&core.Runner{}).RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	want := render(direct)
	points := 0
	for _, st := range direct {
		points += len(st.Series) * len(st.Config.Nodes)
	}

	_, w1 := startServer(t, Config{Workers: 1})
	_, w2 := startServer(t, Config{Workers: 1})
	c, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord, cts := startServer(t, Config{
		Remotes: []string{w1.URL, w2.URL},
		Cache:   c,
	})
	if got := coord.Workers(); got != 2 {
		t.Fatalf("pure coordinator pool size = %d, want 2 remote slots and no local ones", got)
	}

	cold := NewClient(cts.URL)
	coldStudies, err := cold.Submit(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(coldStudies); got != want {
		t.Fatalf("cold fleet run diverged from direct run:\n--- direct ---\n%s--- fleet ---\n%s", want, got)
	}
	if l := cold.Ledger(); l.CacheMisses != points || l.CacheHits != 0 || l.Retries != 0 {
		t.Fatalf("cold fleet ledger: want %d misses, 0 hits, 0 retries; got %+v", points, l)
	}
	// Every cold point must have executed on a remote peer.
	executed := int64(0)
	for _, m := range coord.Fleet() {
		if m.State != "up" || m.Failures != 0 {
			t.Fatalf("healthy fleet member reported unhealthy: %+v", m)
		}
		executed += m.Points
	}
	if executed != int64(points) {
		t.Fatalf("remote members executed %d points, want %d", executed, points)
	}

	warm := NewClient(cts.URL)
	warmStudies, err := warm.Submit(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(warmStudies); got != want {
		t.Fatalf("warm fleet run diverged from direct run:\n--- direct ---\n%s--- fleet ---\n%s", want, got)
	}
	if l := warm.Ledger(); l.CacheHits != points || l.CacheMisses != 0 {
		t.Fatalf("warm fleet run did not hit 100%%: %+v", l)
	}
}

// TestE2EFleetWorkerLossMidSweep is the acceptance worker-loss scenario: a
// coordinator drives two real workers, one of which is severed mid-point
// partway through the sweep (its stream commits, then the connection dies
// — exactly what a SIGKILL'd daosd looks like to the coordinator). The
// sweep must still complete byte-identical to the direct run, report at
// least one retried job in the fleet stats, hold the dead worker down, and
// readmit it once it answers probes again.
func TestE2EFleetWorkerLossMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulation fleet e2e; the -race -short job covers worker loss via the stub tests in fleet_test.go")
	}
	cfgs := quickFigureConfigs(t)
	direct, err := (&core.Runner{}).RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	want := render(direct)

	// Worker 1 sits behind a severing front: its second point request
	// commits the stream header and then aborts the connection, and every
	// request after that (probes included) is refused until revived.
	w1srv := New(Config{Workers: 1})
	defer w1srv.Close()
	var reqs atomic.Int64
	var dead atomic.Bool
	w1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			panic(http.ErrAbortHandler)
		}
		if r.URL.Path == PathSubmitPoints && reqs.Add(1) == 2 {
			dead.Store(true)
			w.Header().Set("Content-Type", ContentType)
			w.WriteHeader(http.StatusOK)
			json.NewEncoder(w).Encode(Header{Points: 1, Studies: 1})
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
		w1srv.ServeHTTP(w, r)
	}))
	defer w1.Close()
	_, w2 := startServer(t, Config{Workers: 1})

	coord, cts := startServer(t, Config{
		Remotes: []string{w1.URL, w2.URL},
		Probe:   backoff.Schedule{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
	})

	client := NewClient(cts.URL)
	studies, err := client.Submit(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("sweep did not survive losing a worker mid-point: %v", err)
	}
	if got := render(studies); got != want {
		t.Fatalf("fleet run with worker loss diverged from direct run:\n--- direct ---\n%s--- fleet ---\n%s", want, got)
	}
	if l := client.Ledger(); l.Retries < 1 {
		t.Fatalf("fleet stats report no retried jobs after a worker died mid-sweep: %+v", l)
	}
	if coord.Retries() < 1 {
		t.Fatalf("coordinator retry counter = %d, want >= 1", coord.Retries())
	}
	waitFor(t, "severed worker to be marked down", func() bool {
		s := fleetMember(t, coord, w1.URL)
		return s.State == "down" && s.Failures >= 1
	})

	// Revive the worker: probes must readmit it, and a second sweep (no
	// coordinator cache, so every point re-dispatches) must use it again.
	dead.Store(false)
	waitFor(t, "revived worker to be readmitted", func() bool {
		s := fleetMember(t, coord, w1.URL)
		return s.State == "up" && s.Readmissions >= 1
	})
	before := reqs.Load()
	if _, err := client.Submit(context.Background(), cfgs); err != nil {
		t.Fatalf("post-readmission sweep failed: %v", err)
	}
	if reqs.Load() <= before {
		t.Fatal("readmitted worker received no point jobs in the next sweep")
	}
}

// TestE2ESharedCacheTierFleet is the shared-tier acceptance test: a fleet
// whose coordinators own no disk cache at all, only a remote tier mounted
// from a peer daosd. The cold coordinator simulates the grid on its two
// workers and pushes every completed point to the peer; a second, fresh
// coordinator pointed at the same peer then reruns the grid without a
// single simulation anywhere in the fleet — a 100%-remote-hit warm run,
// byte-identical to the direct in-process run. Each unique point is
// simulated exactly once globally.
func TestE2ESharedCacheTierFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulation fleet e2e; the -race -short job covers the shared tier via the stub tests in cachetier_test.go")
	}
	cfgs := quickFigureConfigs(t)
	direct, err := (&core.Runner{}).RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	want := render(direct)
	points := 0
	for _, st := range direct {
		points += len(st.Series) * len(st.Config.Nodes)
	}

	// The shared tier: one daosd with a disk cache, serving /v1/cache.
	peerCache, err := cache.New(cache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, peerTS := startServer(t, Config{Workers: 1, Cache: peerCache})

	// Two execution workers and a factory for cache-less coordinators that
	// mount the peer as their only lower tier.
	w1srv, w1 := startServer(t, Config{Workers: 1})
	w2srv, w2 := startServer(t, Config{Workers: 1})
	newCoordinator := func() (*cache.Cache, *Server, *httptest.Server) {
		c, err := cache.New(cache.Options{Peer: peerTS.URL})
		if err != nil {
			t.Fatal(err)
		}
		coord, cts := startServer(t, Config{Remotes: []string{w1.URL, w2.URL}, Cache: c})
		return c, coord, cts
	}

	c1, coord1, cts1 := newCoordinator()
	cold := NewClient(cts1.URL)
	coldStudies, err := cold.Submit(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(coldStudies); got != want {
		t.Fatalf("cold shared-tier run diverged from direct run:\n--- direct ---\n%s--- fleet ---\n%s", want, got)
	}
	if l := cold.Ledger(); l.CacheMisses != points || l.CacheHits != 0 {
		t.Fatalf("cold ledger: want %d misses, 0 hits; got %+v", points, l)
	}
	// Every completed point was pushed to the shared tier, best-effort but
	// losslessly on a healthy peer.
	if st := peerCache.Stats(); st.Stores != int64(points) {
		t.Fatalf("shared tier absorbed %d stores, want %d: %+v", st.Stores, points, st)
	}
	if st := c1.Stats(); st.RemoteErrs != 0 || st.RemoteDowns != 0 {
		t.Fatalf("healthy peer accumulated remote errors on the cold run: %+v", st)
	}
	executed := int64(0)
	for _, m := range coord1.Fleet() {
		executed += m.Points
	}
	if executed != int64(points) {
		t.Fatalf("cold run executed %d points on the fleet, want %d", executed, points)
	}

	// A fresh coordinator shares nothing with the first but the peer. Its
	// "warm" rerun must be served entirely by the shared tier: 100% hits
	// on the ledger, all of them remote, zero fleet executions.
	c2, coord2, cts2 := newCoordinator()
	warm := NewClient(cts2.URL)
	warmStudies, err := warm.Submit(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(warmStudies); got != want {
		t.Fatalf("warm shared-tier run diverged from direct run:\n--- direct ---\n%s--- fleet ---\n%s", want, got)
	}
	if l := warm.Ledger(); l.CacheHits != points || l.CacheMisses != 0 {
		t.Fatalf("warm ledger: want %d hits, 0 misses; got %+v", points, l)
	}
	if !strings.Contains(warm.Ledger().String(), "(100.0% hits)") {
		t.Fatalf("warm ledger lost the CI hit marker: %s", warm.Ledger())
	}
	if st := c2.Stats(); st.RemoteHits != int64(points) || st.Misses != 0 {
		t.Fatalf("warm run not served by the remote tier: %+v", st)
	}
	for _, m := range coord2.Fleet() {
		if m.Points != 0 {
			t.Fatalf("warm coordinator executed %d points on %s; the shared tier should have served everything", m.Points, m.Name)
		}
	}
	// Exactly-once globally: across both runs the whole fleet executed
	// each unique point once — the workers' combined tally never grew
	// past the grid size.
	total := int64(0)
	for _, m := range append(w1srv.Fleet(), w2srv.Fleet()...) {
		total += m.Points
	}
	if total != int64(points) {
		t.Fatalf("fleet executed %d points across both runs, want exactly %d", total, points)
	}
}
