package cache

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// TierPathPrefix is the URL path under which a daosd serves its cache as a
// network tier: GET /v1/cache/{key} answers 200 with the EncodeEntry record
// (404 for a miss), PUT stores one. Keys are content addresses — the
// SHA-256 hex from Key.String — so they mean the same point on every
// machine, and the record body carries its own checksum.
const TierPathPrefix = "/v1/cache/"

// RemoteOptions tunes a remote tier. Zero values take the defaults.
type RemoteOptions struct {
	// Timeout bounds one GET or PUT exchange end to end (default 2s). The
	// records are tiny, so anything slower than this is a peer worth
	// treating as down.
	Timeout time.Duration
	// ProbeBase is the first down period after a failed exchange; each
	// further failure doubles it up to ProbeMax (defaults 100ms and 5s,
	// mirroring the fleet's down-worker re-probe schedule).
	ProbeBase time.Duration
	ProbeMax  time.Duration
}

// remoteTier reads and writes a peer daosd's cache over TierPathPrefix.
//
// Its failure semantics are the disk tier's, stretched over the network: a
// peer that is down, slow, or serving garbage is a miss, never an error.
// Every exchange is bounded by Timeout; a transport failure (or a 5xx)
// marks the peer down for ProbeBase, doubling per failure up to ProbeMax.
// While down, Load and Store return instantly without touching the network
// — except that once each down period expires, exactly one caller is
// admitted as the re-probe (its real lookup doubles as the health check;
// everyone else keeps missing until it succeeds). Store is best-effort by
// contract: a put skipped while the peer is down is silently dropped.
type remoteTier struct {
	base  string
	httpc *http.Client

	probeBase time.Duration
	probeMax  time.Duration

	mu        sync.Mutex
	backoff   time.Duration // 0 = up; otherwise the current down period
	downUntil time.Time
	probing   bool  // one re-probe exchange is in flight
	downs     int64 // up->down transitions
}

// newRemoteTier returns a tier backed by the daosd at peer (host:port or an
// http:// URL).
func newRemoteTier(peer string, o RemoteOptions) *remoteTier {
	base := strings.TrimSuffix(peer, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.ProbeBase <= 0 {
		o.ProbeBase = 100 * time.Millisecond
	}
	if o.ProbeMax <= 0 {
		o.ProbeMax = 5 * time.Second
	}
	return &remoteTier{
		base:      base,
		httpc:     &http.Client{Timeout: o.Timeout},
		probeBase: o.ProbeBase,
		probeMax:  o.ProbeMax,
	}
}

func (t *remoteTier) Name() string { return "remote" }

func (t *remoteTier) url(k Key) string { return t.base + TierPathPrefix + k.String() }

// admit reports whether a call may go to the network: always while up;
// while down, only the single re-probe caller once the down period expires.
func (t *remoteTier) admit() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.backoff == 0 {
		return true
	}
	if time.Now().Before(t.downUntil) || t.probing {
		return false
	}
	t.probing = true
	return true
}

// markDown records a failed exchange: the first failure opens a ProbeBase
// down window, each consecutive one doubles it up to ProbeMax.
func (t *remoteTier) markDown() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.probing = false
	if t.backoff == 0 {
		t.backoff = t.probeBase
		t.downs++
	} else if t.backoff *= 2; t.backoff > t.probeMax {
		t.backoff = t.probeMax
	}
	t.downUntil = time.Now().Add(t.backoff)
}

// markUp records a completed exchange (hit, miss, or a refusal that proves
// the peer is alive): the backoff resets and the tier is readmitted.
func (t *remoteTier) markUp() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.probing = false
	t.backoff = 0
	t.downUntil = time.Time{}
}

// downCount returns the number of up->down transitions (Stats.RemoteDowns).
func (t *remoteTier) downCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.downs
}

// Load implements Tier. A 200 with a well-formed record is a hit; a 404 is
// a clean miss (and proof the peer is up); a corrupt body is LoadCorrupt
// without down-marking (the transport worked); everything else —
// transport error, timeout, 5xx — is LoadUnavailable and marks the peer
// down. While down, Load is an instant LoadMiss with no network traffic.
func (t *remoteTier) Load(k Key) (Entry, LoadResult) {
	if !t.admit() {
		return Entry{}, LoadMiss
	}
	resp, err := t.httpc.Get(t.url(k))
	if err != nil {
		t.markDown()
		return Entry{}, LoadUnavailable
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		buf, err := io.ReadAll(io.LimitReader(resp.Body, int64(diskSize)+1))
		if err != nil {
			t.markDown()
			return Entry{}, LoadUnavailable
		}
		e, derr := DecodeEntry(buf)
		t.markUp()
		if derr != nil {
			return Entry{}, LoadCorrupt
		}
		return e, LoadHit
	case http.StatusNotFound:
		t.markUp()
		return Entry{}, LoadMiss
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
		t.markDown()
		return Entry{}, LoadUnavailable
	}
}

// Store implements Tier, best-effort. A put against a down peer is
// silently skipped (nil: dropping best-effort writes while down is the
// contract, not a failure worth counting per point). A transport failure
// or 5xx marks the peer down; a 4xx (peer alive but refusing — e.g. it has
// no cache configured) is an error without down-marking, so a
// misconfigured peer shows up in Stats.RemoteErrs instead of flapping.
func (t *remoteTier) Store(k Key, e Entry) error {
	if !t.admit() {
		return nil
	}
	req, err := http.NewRequest(http.MethodPut, t.url(k), bytes.NewReader(EncodeEntry(e)))
	if err != nil {
		t.markUp()
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.httpc.Do(req)
	if err != nil {
		t.markDown()
		return fmt.Errorf("cache: remote tier %s: %w", t.base, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	switch {
	case resp.StatusCode/100 == 2:
		t.markUp()
		return nil
	case resp.StatusCode/100 == 5:
		t.markDown()
		return fmt.Errorf("cache: remote tier %s refused put: %s", t.base, resp.Status)
	default:
		t.markUp()
		return fmt.Errorf("cache: remote tier %s refused put: %s", t.base, resp.Status)
	}
}
