package studysvc

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"daosim/internal/backoff"
	"daosim/internal/cache"
	"daosim/internal/core"
	"daosim/internal/ior"
)

// fastPeer keeps a remote tier's down-marking schedule test-speed.
func fastPeer(url string) cache.Options {
	return cache.Options{
		Peer:        url,
		PeerBackoff: backoff.Schedule{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	}
}

// TestCacheEndpointsProtocol pins the /v1/cache/{key} wire contract a
// remote tier depends on: PUT stores a checksummed record into the local
// tiers, GET replays it byte-for-byte, a miss is 404, a malformed key or
// body is 400, and a server with no cache refuses with 404.
func TestCacheEndpointsProtocol(t *testing.T) {
	memCache, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{Workers: 1, NewWorker: func() Worker { return stubWorker{} }, Cache: memCache})

	k := core.PointJob{Cfg: smallConfig(nil), Nodes: 2, Seed: 42}.Key()
	e := cache.Entry{WriteGiBs: 12.5, ReadGiBs: 8.25, DegradedGiBs: 3, RecoverySec: 1.5, MapTransitions: 4}
	url := ts.URL + cache.TierPathPrefix + k.String()

	get := func(url string) *http.Response {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	put := func(url string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := get(url); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of an absent key: %s, want 404", resp.Status)
	}
	if resp := put(url, cache.EncodeEntry(e)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT: %s, want 204", resp.Status)
	}
	resp := get(url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after PUT: %s, want 200", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, cache.EncodeEntry(e)) {
		t.Fatalf("GET body differs from the stored record: %x", body)
	}
	if got, err := cache.DecodeEntry(body); err != nil || got != e {
		t.Fatalf("GET body decoded to %+v, %v; want %+v", got, err, e)
	}

	if resp := get(ts.URL + cache.TierPathPrefix + "zz"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET with a malformed key: %s, want 400", resp.Status)
	}
	if resp := put(url, []byte("torn record")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT of an undecodable body: %s, want 400", resp.Status)
	}
	if resp := get(url); resp.StatusCode != http.StatusOK {
		t.Fatalf("rejected PUT clobbered the entry: %s", resp.Status)
	}

	_, bare := startServer(t, Config{Workers: 1, NewWorker: func() Worker { return stubWorker{} }})
	if resp := get(bare.URL + cache.TierPathPrefix + k.String()); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET against a cache-less daosd: %s, want 404", resp.Status)
	}
	if resp := put(bare.URL+cache.TierPathPrefix+k.String(), cache.EncodeEntry(e)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("PUT against a cache-less daosd: %s, want 404", resp.Status)
	}
}

// sharedGrid builds a one-variant grid over the given node counts. Keys
// depend on (variant index, node count), so disjoint node sets give
// disjoint key sets.
func sharedGrid(nodes ...int) core.Config {
	cfg := smallConfig([]core.Variant{{Label: "daos S2", API: ior.APIDFS}})
	cfg.Nodes = nodes
	return cfg
}

// TestSharedTierAcrossTwoServers is the fleet-global dedup contract at the
// server level: two daosds share one peer's cache as a remote tier, so a
// grid simulated through the first is a 100%-hit warm run on the second —
// its own worker executes nothing.
func TestSharedTierAcrossTwoServers(t *testing.T) {
	peerCache, err := cache.New(cache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, peerTS := startServer(t, Config{Workers: 1, NewWorker: func() Worker { return stubWorker{} }, Cache: peerCache})

	newShared := func(w Worker) (*cache.Cache, *httptest.Server) {
		c, err := cache.New(fastPeer(peerTS.URL))
		if err != nil {
			t.Fatal(err)
		}
		_, ts := startServer(t, Config{Workers: 1, NewWorker: func() Worker { return w }, Cache: c})
		return c, ts
	}
	workerA := &keyedWorker{runs: make(map[cache.Key]int)}
	_, tsA := newShared(workerA)
	workerB := &keyedWorker{runs: make(map[cache.Key]int)}
	cacheB, tsB := newShared(workerB)

	grid := []core.Config{sharedGrid(1, 2)}
	_, jobs := core.Decompose(grid)

	if _, err := NewClient(tsA.URL).Submit(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	if len(workerA.runs) != len(jobs) {
		t.Fatalf("cold run executed %d keys, want %d", len(workerA.runs), len(jobs))
	}
	if st := peerCache.Stats(); st.Stores != int64(len(jobs)) {
		t.Fatalf("peer absorbed %d stores, want %d: %+v", st.Stores, len(jobs), st)
	}

	clientB := NewClient(tsB.URL)
	if _, err := clientB.Submit(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	if len(workerB.runs) != 0 {
		t.Fatalf("warm run through the shared tier executed %d keys, want 0: %v", len(workerB.runs), workerB.runs)
	}
	if led := clientB.Ledger(); led.CacheHits != len(jobs) || led.CacheMisses != 0 {
		t.Fatalf("warm ledger = %+v, want %d hits", led, len(jobs))
	}
	if st := cacheB.Stats(); st.RemoteHits != int64(len(jobs)) {
		t.Fatalf("warm hits not attributed to the remote tier: %+v", st)
	}
}

// TestSharedTierPeerDownDegradesAndReadmits severs the shared peer
// mid-sweep: concurrent submissions through both daosds must degrade to
// their local tiers (a down peer is a miss, never an error), and once the
// peer recovers, the backoff re-probe readmits it — proven by a key only
// the peer holds becoming readable again.
func TestSharedTierPeerDownDegradesAndReadmits(t *testing.T) {
	peerCache, err := cache.New(cache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	peerSrv := New(Config{Workers: 1, NewWorker: func() Worker { return stubWorker{} }, Cache: peerCache})
	defer peerSrv.Close()
	var dead atomic.Bool
	peerTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			panic(http.ErrAbortHandler)
		}
		peerSrv.ServeHTTP(w, r)
	}))
	defer peerTS.Close()

	newShared := func() (*cache.Cache, *httptest.Server) {
		c, err := cache.New(fastPeer(peerTS.URL))
		if err != nil {
			t.Fatal(err)
		}
		_, ts := startServer(t, Config{
			Workers:   1,
			NewWorker: func() Worker { return &keyedWorker{runs: make(map[cache.Key]int)} },
			Cache:     c,
		})
		return c, ts
	}
	cacheA, tsA := newShared()
	_, tsB := newShared()

	// Warm the peer with B's grid while it is healthy: these keys exist
	// nowhere in A's local tiers.
	gridB := []core.Config{sharedGrid(4)}
	if _, err := NewClient(tsB.URL).Submit(context.Background(), gridB); err != nil {
		t.Fatal(err)
	}
	_, jobsB := core.Decompose(gridB)

	// Sever the peer and sweep new grids through both daosds at once: the
	// shared tier is unreachable, so every point must simulate locally and
	// every submission must still succeed.
	dead.Store(true)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, sub := range []struct {
		ts   *httptest.Server
		grid []core.Config
	}{
		{tsA, []core.Config{sharedGrid(1, 2)}},
		{tsB, []core.Config{sharedGrid(3)}},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = NewClient(sub.ts.URL).Submit(context.Background(), sub.grid)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d through a severed shared tier: %v", i, err)
		}
	}
	if st := cacheA.Stats(); st.RemoteDowns == 0 {
		t.Fatalf("severed peer never marked down: %+v", st)
	}

	// Recovery: the peer still holds B's warm keys, which A has never
	// seen. A's re-probe must readmit the tier and serve them remotely.
	dead.Store(false)
	waitFor(t, "peer readmitted into A's tier stack", func() bool {
		_, ok := cacheA.Get(jobsB[0].Key())
		return ok
	})
	if st := cacheA.Stats(); st.RemoteHits == 0 {
		t.Fatalf("readmitted hit not attributed to the remote tier: %+v", st)
	}
}
