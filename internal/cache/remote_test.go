package cache

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"daosim/internal/backoff"
)

// stubPeer is a minimal in-test implementation of the /v1/cache protocol:
// what a daosd serves, without importing studysvc (which would be an
// import cycle).
type stubPeer struct {
	mu      sync.Mutex
	entries map[string][]byte
	gets    atomic.Int64
	puts    atomic.Int64
	dead    atomic.Bool // sever the connection instead of answering
}

func newStubPeer() *stubPeer { return &stubPeer{entries: make(map[string][]byte)} }

func (p *stubPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	key := strings.TrimPrefix(r.URL.Path, TierPathPrefix)
	switch r.Method {
	case http.MethodGet:
		p.gets.Add(1)
		p.mu.Lock()
		buf, ok := p.entries[key]
		p.mu.Unlock()
		if !ok {
			http.Error(w, "no entry", http.StatusNotFound)
			return
		}
		w.Write(buf)
	case http.MethodPut:
		p.puts.Add(1)
		buf, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p.mu.Lock()
		p.entries[key] = buf
		p.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "bad method", http.StatusMethodNotAllowed)
	}
}

// fastPeer is a cache over the peer at addr whose down-marking schedule
// runs at test speed.
func fastPeer(addr string) Options {
	return Options{Peer: addr, PeerBackoff: backoff.Schedule{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond}}
}

// TestRemoteTierRoundTrip: a point Put by one cache is a remote hit for a
// second cache sharing the same peer, and the hit hydrates the second
// cache's memory tier.
func TestRemoteTierRoundTrip(t *testing.T) {
	peer := newStubPeer()
	srv := httptest.NewServer(peer)
	defer srv.Close()

	a, err := New(fastPeer(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(fastPeer(srv.URL))
	if err != nil {
		t.Fatal(err)
	}

	k := keyOf("shared")
	want := Entry{WriteGiBs: 12.5, ReadGiBs: 8.25, DegradedGiBs: 3, RecoverySec: 1.5, MapTransitions: 4}
	a.Put(k, want)
	if peer.puts.Load() != 1 {
		t.Fatalf("peer saw %d puts, want 1", peer.puts.Load())
	}

	got, ok := b.Get(k)
	if !ok || got != want {
		t.Fatalf("remote lookup = %+v, %v; want %+v", got, ok, want)
	}
	st := b.Stats()
	if st.Hits != 1 || st.RemoteHits != 1 || st.MemHits != 0 {
		t.Fatalf("stats after remote hit = %+v", st)
	}
	// The hit hydrated b's memory tier: the second lookup stays local.
	if _, ok := b.Get(k); !ok {
		t.Fatal("hydrated entry missing")
	}
	if st := b.Stats(); st.MemHits != 1 || peer.gets.Load() != 1 {
		t.Fatalf("second lookup went back to the network: %+v, gets=%d", st, peer.gets.Load())
	}
}

// TestRemoteTierMissIsClean: a 404 from the peer is a plain miss and does
// not mark the peer down.
func TestRemoteTierMissIsClean(t *testing.T) {
	peer := newStubPeer()
	srv := httptest.NewServer(peer)
	defer srv.Close()

	c, err := New(fastPeer(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(keyOf("absent")); ok {
		t.Fatal("miss served as a hit")
	}
	st := c.Stats()
	if st.Misses != 1 || st.RemoteErrs != 0 || st.RemoteDowns != 0 {
		t.Fatalf("stats after clean miss = %+v", st)
	}
}

// TestRemoteTierPeerDownIsMissThenReadmits: a severed peer degrades to a
// miss (never an error), the tier marks itself down so later lookups skip
// the network, and once the peer recovers a backoff re-probe readmits it.
func TestRemoteTierPeerDownIsMissThenReadmits(t *testing.T) {
	peer := newStubPeer()
	srv := httptest.NewServer(peer)
	defer srv.Close()

	c, err := New(fastPeer(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("shared")
	peer.mu.Lock()
	peer.entries[k.String()] = EncodeEntry(Entry{WriteGiBs: 7})
	peer.mu.Unlock()

	peer.dead.Store(true)
	if _, ok := c.Get(k); ok {
		t.Fatal("severed peer served a hit")
	}
	st := c.Stats()
	if st.Misses != 1 || st.RemoteErrs != 1 || st.RemoteDowns != 1 {
		t.Fatalf("stats after severed lookup = %+v", st)
	}
	// While down, lookups miss instantly without reaching the network.
	gets := peer.gets.Load()
	if _, ok := c.Get(k); ok {
		t.Fatal("down peer served a hit")
	}
	if peer.gets.Load() != gets {
		t.Fatal("lookup against a down peer touched the network inside the backoff window")
	}

	peer.dead.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := c.Get(k); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer never readmitted after recovery")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := c.Stats(); st.RemoteHits == 0 {
		t.Fatalf("readmitted hit not attributed to the remote tier: %+v", st)
	}
}

// TestRemoteTierCorruptBodyIsMiss: a peer serving an undecodable record is
// a miss counted in Stats.Corrupt, with no down-marking (the transport
// worked; the payload did not).
func TestRemoteTierCorruptBodyIsMiss(t *testing.T) {
	peer := newStubPeer()
	srv := httptest.NewServer(peer)
	defer srv.Close()

	c, err := New(fastPeer(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("garbled")
	peer.mu.Lock()
	peer.entries[k.String()] = []byte("not a record")
	peer.mu.Unlock()

	if _, ok := c.Get(k); ok {
		t.Fatal("corrupt remote body served as a hit")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Corrupt != 1 || st.RemoteDowns != 0 {
		t.Fatalf("stats after corrupt body = %+v", st)
	}
}

// TestRemoteTierPutIsBestEffort: a peer refusing puts (e.g. it has no
// cache configured and answers 404) surfaces in Stats.RemoteErrs but does
// not flap the peer down, and never fails the caller's Put.
func TestRemoteTierPutIsBestEffort(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no cache tier", http.StatusNotFound)
	}))
	defer srv.Close()

	c, err := New(fastPeer(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	c.Put(keyOf("dropped"), Entry{WriteGiBs: 1})
	st := c.Stats()
	if st.Stores != 1 || st.RemoteErrs != 1 || st.RemoteDowns != 0 {
		t.Fatalf("stats after refused put = %+v", st)
	}
	// The entry still landed in the local tiers.
	if _, ok := c.Get(keyOf("dropped")); !ok {
		t.Fatal("refused remote put lost the local entry")
	}
}

// TestRemoteTierDefaults pins the documented remote-tier defaults: a 2s
// exchange timeout and a down window of 100ms doubling to 5s.
func TestRemoteTierDefaults(t *testing.T) {
	c, err := New(Options{Peer: "127.0.0.1:9464"})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.remote.httpc.Timeout; got != 2*time.Second {
		t.Errorf("exchange timeout = %v, want 2s", got)
	}
	if got, want := c.remote.sched, (backoff.Schedule{Base: 100 * time.Millisecond, Max: 5 * time.Second}); got != want {
		t.Errorf("down-window schedule = %+v, want %+v", got, want)
	}
}

// TestRemoteTierBoundedTimeout: a hung peer (accepts, never answers) costs
// one bounded timeout, not a wedge, and is then marked down.
func TestRemoteTierBoundedTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never answer
		}
	}()

	c, err := New(fastPeer(ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	c.remote.httpc.Timeout = 50 * time.Millisecond
	start := time.Now()
	if _, ok := c.Get(keyOf("hung")); ok {
		t.Fatal("hung peer served a hit")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("lookup against a hung peer took %v; want ~the 50ms timeout", elapsed)
	}
	if st := c.Stats(); st.RemoteDowns != 1 {
		t.Fatalf("hung peer not marked down: %+v", st)
	}
}

// TestRemoteTierConcurrentHammer: many goroutines Get/Put the same keys
// through two caches sharing one peer while the peer flaps; every lookup
// must resolve as a hit or a miss — the tier's failure modes are invisible
// to callers — and the run must be -race clean.
func TestRemoteTierConcurrentHammer(t *testing.T) {
	peer := newStubPeer()
	srv := httptest.NewServer(peer)
	defer srv.Close()

	a, err := New(fastPeer(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(fastPeer(srv.URL))
	if err != nil {
		t.Fatal(err)
	}

	keys := make([]Key, 8)
	for i := range keys {
		keys[i] = keyOf(string(rune('a' + i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := a
			if g%2 == 1 {
				c = b
			}
			for i := 0; i < 50; i++ {
				k := keys[(g+i)%len(keys)]
				if e, ok := c.Get(k); ok && e.WriteGiBs == 0 {
					t.Error("hit returned a zero entry")
					return
				}
				c.Put(k, Entry{WriteGiBs: float64((g+i)%len(keys)) + 1})
			}
		}(g)
	}
	// Flap the peer while the hammer runs.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			peer.dead.Store(i%2 == 0)
			time.Sleep(3 * time.Millisecond)
		}
		peer.dead.Store(false)
	}()
	wg.Wait()
	<-done
}
