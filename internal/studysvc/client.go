package studysvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"

	"daosim/internal/backoff"
	"daosim/internal/core"
)

var _ core.StudyRunner = (*Client)(nil)

// Default transport bounds for NewClient: connection setup and
// time-to-response-header are capped so a hung or unreachable peer
// surfaces as an error instead of blocking forever, while the response
// body — the result stream, which legitimately lasts as long as the sweep
// — stays unbounded.
const (
	// DefaultDialTimeout caps TCP connection establishment.
	DefaultDialTimeout = 10 * time.Second
	// DefaultHeaderTimeout caps the wait for the response status line and
	// headers after the request is written. The server commits the status
	// before scheduling any work, so a healthy peer answers within network
	// latency regardless of sweep size.
	DefaultHeaderTimeout = 30 * time.Second
)

// DefaultRetryAttempts caps consecutive failed Submit exchanges (connects
// plus severed streams that made no progress) before Submit gives up. With
// NewClient's reconnect schedule (100ms doubling to 2s) its seven waits add
// up to 7.1s of patience — comfortably over a daosd exec plus journal
// replay — while a permanent failure (bad address, rejected batch) still
// reports immediately because it is never classified retryable.
const DefaultRetryAttempts = 8

// newHTTPClient builds the default transport: bounded dial and
// response-header waits, unbounded streaming body.
func newHTTPClient(dial, header time.Duration) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:           (&net.Dialer{Timeout: dial}).DialContext,
		ResponseHeaderTimeout: header,
	}}
}

// Client submits study batches to a daosd server and reassembles the
// streamed points into *core.Study values indistinguishable from an
// in-process run. It implements core.StudyRunner, so anything that takes a
// runner — every bench experiment, cmd/figures — can execute through a
// server by swapping this in.
type Client struct {
	// HTTP is the transport. NewClient installs a client with bounded
	// connect and response-header timeouts and no overall Timeout (streams
	// are long-lived); replace it to tune.
	HTTP *http.Client
	// OnPoint, when set, observes every streamed point as it arrives —
	// progress reporting for interactive callers. It runs on the stream
	// reader goroutine and must not block.
	OnPoint func(StreamPoint)
	// OnRetry, when set, observes every Submit reconnect attempt before
	// its backoff wait — interactive callers print it so a coordinator
	// restart is visible, not a silent stall.
	OnRetry func(attempt int, wait time.Duration, err error)
	// RetryAttempts caps consecutive failed Submit exchanges (NewClient:
	// DefaultRetryAttempts); progress (any point received) resets the
	// count, and 1 disables retries entirely. Only Submit retries:
	// SubmitJobs is the coordinator-to-worker leg, whose retry plane is
	// the fleet scheduler, and Health/Stats are probes.
	RetryAttempts int
	// Retry is the reconnect wait schedule (NewClient: 100ms doubling
	// to 2s).
	Retry backoff.Schedule

	base string

	mu     sync.Mutex
	ledger Ledger
}

// NewClient returns a client for the daosd server at addr (a host:port or
// an http:// URL).
func NewClient(addr string) *Client {
	base := strings.TrimSuffix(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{
		base:          base,
		HTTP:          newHTTPClient(DefaultDialTimeout, DefaultHeaderTimeout),
		RetryAttempts: DefaultRetryAttempts,
		Retry:         backoff.Schedule{Base: 100 * time.Millisecond, Max: 2 * time.Second},
	}
}

// Ledger accumulates the trailer counters of every submission a Client has
// completed: the client-side view of how much work the server's cache
// absorbed and how often its fleet had to retry.
type Ledger struct {
	Requests     int
	Points       int
	CacheEnabled bool
	CacheHits    int
	CacheMisses  int
	Errors       int
	// Coalesced counts points answered by replaying an identical in-flight
	// point's result (single-flight dedup) instead of executing.
	Coalesced int
	// Retries counts jobs the server re-dispatched after losing a worker
	// mid-point — the fleet's robustness at work, visible per batch.
	Retries int
}

// String renders the ledger in the cache-stats idiom, including the
// "(100.0% hits)" marker TestBinaries checks on warm runs. A fleet that
// had to retry jobs appends its count, so worker loss is visible in every
// studyctl/figures run that survived one.
func (l Ledger) String() string {
	s := ""
	if !l.CacheEnabled {
		s = fmt.Sprintf("server cache: off (%d points over %d requests)", l.Points, l.Requests)
	} else {
		lookups := l.CacheHits + l.CacheMisses
		rate := 0.0
		if lookups > 0 {
			rate = 100 * float64(l.CacheHits) / float64(lookups)
		}
		s = fmt.Sprintf("server cache: %d lookups, %d hits, %d misses (%.1f%% hits), %d points over %d requests",
			lookups, l.CacheHits, l.CacheMisses, rate, l.Points, l.Requests)
	}
	if l.Coalesced > 0 {
		s += fmt.Sprintf("; %d point(s) coalesced in flight", l.Coalesced)
	}
	if l.Retries > 0 {
		s += fmt.Sprintf("; fleet retried %d job(s)", l.Retries)
	}
	return s
}

// Ledger returns the accumulated submission counters.
func (c *Client) Ledger() Ledger {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger
}

// Run executes one study sweep through the server.
func (c *Client) Run(cfg core.Config) (*core.Study, error) {
	studies, err := c.RunAll([]core.Config{cfg})
	if len(studies) != 1 {
		// Unlike core.Runner.RunAll, Submit returns no studies at all when
		// the exchange itself fails (server unreachable, stream truncated).
		return nil, err
	}
	return studies[0], err
}

// RunAll executes a batch of study sweeps through the server, mirroring
// core.Runner.RunAll: studies come back in input order and fully populated,
// and the returned error joins per-point failures.
func (c *Client) RunAll(cfgs []core.Config) ([]*core.Study, error) {
	return c.Submit(context.Background(), cfgs)
}

// statusError is a non-200 response: the one error class where the HTTP
// code, not the transport, decides retryability (503 means draining or
// restarting; everything else is a permanent rejection).
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// open starts one stream exchange and returns the committed stream: a
// POST of payload (a submission), or with a nil payload a GET of
// pathAndQuery (a resume, /v1/studies/{batch}?from=seq).
func (c *Client) open(ctx context.Context, pathAndQuery string, payload any) (io.ReadCloser, error) {
	method, what, body := http.MethodGet, "resume", io.Reader(nil)
	if payload != nil {
		buf, err := json.Marshal(payload)
		if err != nil {
			return nil, fmt.Errorf("studysvc: encode submit: %w", err)
		}
		method, what, body = http.MethodPost, "submit", bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+pathAndQuery, body)
	if err != nil {
		return nil, fmt.Errorf("studysvc: build %s: %w", what, err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, fmt.Errorf("studysvc: %s: %w", what, err)
	}
	if resp.StatusCode != http.StatusOK {
		diag, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		return nil, &statusError{code: resp.StatusCode, msg: fmt.Sprintf(
			"studysvc: server rejected %s: %s: %s",
			what, resp.Status, strings.TrimSpace(string(diag)))}
	}
	return resp.Body, nil
}

// transientErr classifies transport failures worth a reconnect: the
// server not being there yet (refused, reset, timed out, EOF before the
// response) — the shapes a restarting coordinator produces. Address
// errors that no amount of waiting fixes (DNS name not found, malformed
// URLs) and the caller's own cancellation are permanent.
func transientErr(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var dns *net.DNSError
	if errors.As(err, &dns) {
		return dns.IsTimeout
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// shouldRetry decides whether a failed Submit exchange is worth another
// attempt. A durable batch (the server echoed a batch id) can always be
// re-attached idempotently; an ephemeral stream can only be safely
// re-POSTed while nothing has been received, and only for transient
// transport failures. Non-200s retry only on 503 (draining/restarting).
func (c *Client) shouldRetry(ctx context.Context, err error, batch string, received int) bool {
	if ctx.Err() != nil {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.code == http.StatusServiceUnavailable
	}
	if batch != "" {
		return true
	}
	return received == 0 && transientErr(err)
}

// consumePoints drains n point lines plus the trailer from a committed
// stream, dispatching each point through fill. Any malformed, short, or
// severed stream comes back as an explicit error naming how many of the
// expected points arrived — a partially-written line or a missing trailer
// is never silently accepted as a complete batch. It is the one stream
// reader shared by Submit (config batches) and SubmitJobs (the
// coordinator-to-worker leg), so both ends of a fleet detect mid-stream
// worker death identically.
func consumePoints(dec *json.Decoder, n int, fill func(StreamPoint) error) (Trailer, error) {
	// A point line is distinguished from a premature trailer by "done".
	type line struct {
		StreamPoint
		Done bool `json:"done"`
	}
	for seen := 0; seen < n; seen++ {
		var ln line
		if err := dec.Decode(&ln); err != nil {
			return Trailer{}, fmt.Errorf("studysvc: stream truncated after %d/%d points: %w", seen, n, err)
		}
		if ln.Done {
			return Trailer{}, fmt.Errorf("studysvc: stream ended early after %d/%d points", seen, n)
		}
		if err := fill(ln.StreamPoint); err != nil {
			return Trailer{}, err
		}
	}
	var t Trailer
	if err := dec.Decode(&t); err != nil {
		return Trailer{}, fmt.Errorf("studysvc: stream missing trailer: %w", err)
	}
	if !t.Done {
		return Trailer{}, fmt.Errorf("studysvc: malformed trailer: %+v", t)
	}
	return t, nil
}

// slotter maps streamed points back to their job positions: each call
// returns the position of sp's grid coordinates, or an error for a point
// outside the jobs (named by grid) or one already seen.
func slotter(jobs []core.PointJob, grid string) func(sp StreamPoint) (int, error) {
	slot := make(map[[3]int]int, len(jobs))
	for i, j := range jobs {
		slot[[3]int{j.Study, j.Series, j.Index}] = i
	}
	filled := make([]bool, len(jobs))
	return func(sp StreamPoint) (int, error) {
		i, ok := slot[[3]int{sp.Study, sp.Series, sp.Index}]
		if !ok {
			return 0, fmt.Errorf("studysvc: stream carried a point outside the %s (study=%d series=%d index=%d)",
				grid, sp.Study, sp.Series, sp.Index)
		}
		if filled[i] {
			return 0, fmt.Errorf("studysvc: stream carried a duplicate point (study=%d series=%d index=%d)",
				sp.Study, sp.Series, sp.Index)
		}
		filled[i] = true
		return i, nil
	}
}

// exchange performs one Submit attempt: the initial POST while no batch
// id is known, or a GET resume from the last received offset once the
// server has echoed one. It consumes the stream through fill and returns
// the trailer; any failure leaves *batch and the fill state ready for
// the caller's retry decision.
func (c *Client) exchange(ctx context.Context, cfgs []core.Config, batchID string, batch *string, lastSeq, received int, fill func(StreamPoint) error) (Trailer, error) {
	var body io.ReadCloser
	var err error
	if *batch == "" {
		body, err = c.open(ctx, PathSubmit, SubmitRequest{Configs: cfgs, Batch: batchID})
	} else {
		body, err = c.open(ctx, fmt.Sprintf("%s/%s?from=%d", PathSubmit, *batch, lastSeq), nil)
	}
	if err != nil {
		return Trailer{}, err
	}
	defer body.Close()
	dec := json.NewDecoder(body)
	var h Header
	if err := dec.Decode(&h); err != nil {
		return Trailer{}, fmt.Errorf("studysvc: read stream header: %w", err)
	}
	_, jobs := core.Decompose(cfgs)
	if h.Points != len(jobs) || h.Studies != len(cfgs) {
		return Trailer{}, fmt.Errorf("studysvc: server decomposed %d points / %d studies, client expected %d / %d (client/server version skew?)",
			h.Points, h.Studies, len(jobs), len(cfgs))
	}
	if h.Batch != "" {
		*batch = h.Batch
	}
	return consumePoints(dec, len(jobs)-received, fill)
}

// Submit posts the batch and consumes the result stream. The returned
// studies are assembled from the client's own core.Decompose of cfgs —
// identical to the server's by construction — with each streamed point
// dropped into its slot, so Table and CSV render byte-identically to an
// in-process run. A nil error means the stream completed with a trailer
// and no point carried a failure.
//
// Submit rides out a restarting or briefly unreachable coordinator:
// transient connect failures are retried with capped exponential backoff
// (RetryAttempts and Retry), and when the server is durable
// (its Header carries a batch id) a severed stream is resumed from the
// last received sequence offset instead of being an error — the points
// already received are kept and only the missing tail is re-fetched, so
// the reassembled studies are identical to an uninterrupted exchange.
// Against a storeless server a stream severed mid-batch (server crash,
// connection reset, missing trailer) remains a permanent error naming
// how many points arrived.
func (c *Client) Submit(ctx context.Context, cfgs []core.Config) ([]*core.Study, error) {
	if len(cfgs) == 0 {
		// Mirror core.Runner.RunAll(nil) without a round trip; the server
		// rejects empty submissions as malformed.
		studies, _ := core.Decompose(cfgs)
		return studies, nil
	}
	start := time.Now()
	studies, jobs := core.Decompose(cfgs)

	var (
		batch    string // durable batch id echoed by the server's Header
		lastSeq  int    // highest delivery offset received (the resume cursor)
		received int
	)
	// The client picks the batch id so a connection lost before the
	// Header arrived can be re-POSTed idempotently: the server re-attaches
	// to the batch it already opened instead of scheduling a duplicate.
	batchID := newBatchID()
	place := slotter(jobs, "batch grid")
	fill := func(sp StreamPoint) error {
		if _, err := place(sp); err != nil {
			return err
		}
		received++
		if sp.Seq > lastSeq {
			lastSeq = sp.Seq
		}
		studies[sp.Study].Series[sp.Series].Points[sp.Index] = sp.toPoint()
		if c.OnPoint != nil {
			c.OnPoint(sp)
		}
		return nil
	}

	var t Trailer
	attempt := 0
	for {
		before := received
		tr, err := c.exchange(ctx, cfgs, batchID, &batch, lastSeq, received, fill)
		if err == nil {
			t = tr
			break
		}
		if received > before {
			// Progress resets the failure budget: a sweep that outlives
			// several coordinator restarts still completes.
			attempt = 0
		}
		attempt++
		if attempt >= c.RetryAttempts || !c.shouldRetry(ctx, err, batch, received) {
			return nil, err
		}
		wait := c.Retry.Wait(attempt)
		if c.OnRetry != nil {
			c.OnRetry(attempt, wait, err)
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, err
		}
	}
	c.mu.Lock()
	c.ledger.Requests++
	c.ledger.Points += t.Points
	c.ledger.CacheEnabled = c.ledger.CacheEnabled || t.CacheEnabled
	c.ledger.CacheHits += t.CacheHits
	c.ledger.CacheMisses += t.CacheMisses
	c.ledger.Errors += t.Errors
	c.ledger.Coalesced += t.Coalesced
	c.ledger.Retries += t.Retries
	c.mu.Unlock()

	return studies, core.Finish(studies, time.Since(start))
}

// SubmitJobs posts pre-decomposed point jobs to the server's /v1/points
// endpoint and returns their results in input order. It is the
// coordinator-to-worker leg of a daosd fleet (see RemoteWorker): jobs
// travel verbatim — seed, coordinates, defaulted config — so the peer's
// results are byte-identical to local execution. Any failure to deliver
// all the points (connect failure, rejected submit, stream severed
// mid-batch, missing trailer) is the returned error; the caller retries
// on another worker.
func (c *Client) SubmitJobs(ctx context.Context, jobs []core.PointJob) ([]core.Point, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	body, err := c.open(ctx, PathSubmitPoints, PointsRequest{Jobs: jobs})
	if err != nil {
		return nil, err
	}
	defer body.Close()

	dec := json.NewDecoder(body)
	var h Header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("studysvc: read stream header: %w", err)
	}
	if h.Points != len(jobs) {
		return nil, fmt.Errorf("studysvc: server accepted %d point jobs, client sent %d", h.Points, len(jobs))
	}
	pts := make([]core.Point, len(jobs))
	place := slotter(jobs, "job batch")
	_, err = consumePoints(dec, len(jobs), func(sp StreamPoint) error {
		i, err := place(sp)
		if err == nil {
			pts[i] = sp.toPoint()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// Health checks the server's PathHealth endpoint.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathHealth, nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("studysvc: health: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("studysvc: health: %s", resp.Status)
	}
	return nil
}

// Stats fetches the server's scheduler, fleet, and cache counters from
// PathStats.
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	var st ServerStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathStats, nil)
	if err != nil {
		return st, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return st, fmt.Errorf("studysvc: stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("studysvc: stats: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("studysvc: decode stats: %w", err)
	}
	return st, nil
}
