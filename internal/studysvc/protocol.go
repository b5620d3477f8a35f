package studysvc

import (
	"time"

	"daosim/internal/core"
)

// The wire protocol. A submission is one HTTP exchange:
//
//	POST /v1/studies
//	Content-Type: application/json
//	{"configs": [core.Config, ...]}
//
// answered with a 200 and an NDJSON stream (one JSON object per line,
// flushed as produced):
//
//	{"points": N, "studies": M}                         <- Header, exactly once
//	{"study":0,"series":1,"index":0,"nodes":4, ...}     <- StreamPoint, N times, completion order
//	{"done":true,"points":N,"cache_hits":H, ...}        <- Trailer, exactly once
//
// Both ends run core.Decompose over the same configs, so the grid shape,
// slot coordinates, and derived seeds agree by construction; the stream
// only ever carries measured results, in whatever order points complete.
// Submission errors (malformed body, empty batch) are plain non-200
// responses with a text/plain diagnostic; once streaming has begun the
// status is committed, so a truncated stream (missing Trailer) is the
// error signal for mid-flight failure. A server that is draining rejects
// new submissions with a 503 before any stream byte is written.
//
// # Durable batches and resume
//
// On a server with a job store (daosd -store-dir) the exchange gains a
// batch identity. The client names its submission ("batch" in the POST
// body; the server generates an id when absent), the Header echoes it
// once the batch is journaled and synced, and every StreamPoint carries a per-batch delivery sequence number
// ("seq", 1-based, dense in delivery order). A severed stream is then
// resumable Last-Event-Id style:
//
//	GET /v1/studies/{batch}?from=S
//
// re-attaches to the batch and streams — identical framing — every
// point with seq > S followed by the trailer, waiting for points that
// have not completed yet. Because completed points are journaled, this
// works across a server crash: the restarted daosd replays its journal,
// re-enqueues only the points that never finished, and serves the rest
// from the store. Resuming an unknown batch (no journal, or already
// fully delivered and retired) is a 404, on which clients POST the batch
// again under its id and skip the points they already hold. Re-POSTing a
// batch id the server already knows is idempotent: it re-attaches from
// seq 0 instead of re-scheduling.
// Storeless servers omit "batch" from the Header; clients fall back to
// the truncation-is-an-error contract above.
//
// A second submission form, POST /v1/points, carries pre-decomposed
// point jobs — explicit seeds and slot coordinates instead of configs —
// and answers with the identical NDJSON framing. It is the
// coordinator-to-worker leg of a daosd fleet: the coordinator decomposes
// the client's configs once and ships each job verbatim, so the executing
// peer cannot re-derive anything differently and byte-identity holds
// across any fleet topology.
const (
	// PathSubmit accepts study batch submissions.
	PathSubmit = "/v1/studies"
	// PathSubmitPoints accepts pre-decomposed point-job submissions (the
	// coordinator-to-worker leg of a fleet).
	PathSubmitPoints = "/v1/points"
	// PathHealth answers 200 "ok" when the server is accepting work. Fleet
	// coordinators probe it to readmit workers that were marked down.
	PathHealth = "/v1/healthz"
	// PathStats reports scheduler, fleet, and cache counters.
	PathStats = "/v1/statsz"

	// ContentType is the media type of the result stream.
	ContentType = "application/x-ndjson"
)

// SubmitRequest is the body of a PathSubmit POST. Configs are raw study
// configurations: the server applies core defaults itself (via
// core.Decompose), so clients submit exactly what they would hand to
// core.Runner.RunAll.
type SubmitRequest struct {
	Configs []core.Config `json:"configs"`
	// Batch optionally names the submission for durable servers. A client
	// that picks its own id can re-POST the identical batch after losing
	// the connection before the Header arrived, and the server will
	// re-attach instead of re-scheduling. Storeless servers ignore it.
	Batch string `json:"batch,omitempty"`
}

// PointsRequest is the body of a PathSubmitPoints POST: fully-specified
// point jobs, exactly as the submitting coordinator's core.Decompose
// produced them. The executing server runs each job as received — the
// config inside is already defaulted and the seed already derived — so the
// result is byte-identical to executing the job anywhere else, and the
// job's cache key (core.PointJob.Key) is the same on every machine.
type PointsRequest struct {
	Jobs []core.PointJob `json:"jobs"`
}

// Header is the first stream line: the server's decomposition of the batch,
// which the client checks against its own before accepting points.
type Header struct {
	// Points is the total number of point jobs the batch expands to.
	Points int `json:"points"`
	// Studies is the number of studies in the batch.
	Studies int `json:"studies"`
	// Batch is the durable batch id, echoed (or generated) by servers
	// with a job store. Empty on a storeless server — the client's signal
	// that the stream cannot be resumed.
	Batch string `json:"batch,omitempty"`
}

// StreamPoint is one completed sweep point, streamed as soon as it lands.
// Study/Series/Index are the result-slot coordinates from core.Decompose;
// the measured fields mirror core.Point exactly (float64 values survive the
// JSON round trip bit-for-bit, which is what keeps server-side sweeps
// byte-identical to in-process ones).
type StreamPoint struct {
	Study  int `json:"study"`
	Series int `json:"series"`
	Index  int `json:"index"`
	// Seq is the point's 1-based position in the batch's delivery order —
	// the resume cursor. A client that saw seq S re-attaches with ?from=S
	// and receives exactly the points it missed. Zero (omitted) only in
	// hand-built test streams.
	Seq int `json:"seq,omitempty"`

	Nodes     int     `json:"nodes"`
	Ranks     int     `json:"ranks"`
	WriteGiBs float64 `json:"write_gibs"`
	ReadGiBs  float64 `json:"read_gibs"`
	// DegradedGiBs, RecoverySec, and MapTransitions mirror the
	// degraded-mode outputs of fault-injected points (zero, and omitted
	// on the wire, for points without a fault plan).
	DegradedGiBs   float64 `json:"degraded_gibs,omitempty"`
	RecoverySec    float64 `json:"recovery_sec,omitempty"`
	MapTransitions int     `json:"map_transitions,omitempty"`
	// ElapsedNS is the executing worker's host wall-clock for the point.
	ElapsedNS int64  `json:"elapsed_ns"`
	Err       string `json:"err,omitempty"`
	// CacheHit marks a point served from the server's cache without
	// simulating.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Coalesced marks a point that was not executed for this slot: an
	// identical point was already in flight (a duplicate within the batch,
	// or a concurrent submission's), and the single-flight leader's result
	// was replayed here.
	Coalesced bool `json:"coalesced,omitempty"`
}

// Trailer is the last stream line: the batch ledger. Its presence is the
// client's proof that the stream is complete.
type Trailer struct {
	Done   bool `json:"done"`
	Points int  `json:"points"`
	// CacheEnabled reports whether the server consulted a point cache for
	// this batch; when false the hit/miss counters are meaningless.
	CacheEnabled bool `json:"cache_enabled"`
	// CacheHits and CacheMisses partition the batch's points: hits were
	// replayed from the cache, misses were dispatched to workers.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Errors counts points that completed with a failure recorded.
	Errors int `json:"errors"`
	// Coalesced counts points of this batch that were answered by
	// replaying a single-flight leader's result instead of executing
	// (they are also counted in CacheHits or CacheMisses, matching how
	// the leader resolved).
	Coalesced int `json:"coalesced,omitempty"`
	// Retries counts jobs of this batch that were re-dispatched to another
	// worker after the one executing them failed (remote death, timeout,
	// truncated stream). Zero on a healthy fleet and on a purely local
	// server.
	Retries int `json:"retries,omitempty"`
	// ElapsedNS is the server-side wall-clock for the whole batch.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// toWire converts an executed point into its stream line.
func toWire(j core.PointJob, pt core.Point, hit bool) StreamPoint {
	return StreamPoint{
		Study:          j.Study,
		Series:         j.Series,
		Index:          j.Index,
		Nodes:          pt.Nodes,
		Ranks:          pt.Ranks,
		WriteGiBs:      pt.WriteGiBs,
		ReadGiBs:       pt.ReadGiBs,
		DegradedGiBs:   pt.DegradedGiBs,
		RecoverySec:    pt.RecoverySec,
		MapTransitions: pt.MapTransitions,
		ElapsedNS:      int64(pt.Elapsed),
		Err:            pt.Err,
		CacheHit:       hit,
	}
}

// toPoint converts a stream line back into the core.Point it carries.
func (sp StreamPoint) toPoint() core.Point {
	return core.Point{
		Nodes:          sp.Nodes,
		Ranks:          sp.Ranks,
		WriteGiBs:      sp.WriteGiBs,
		ReadGiBs:       sp.ReadGiBs,
		DegradedGiBs:   sp.DegradedGiBs,
		RecoverySec:    sp.RecoverySec,
		MapTransitions: sp.MapTransitions,
		Elapsed:        time.Duration(sp.ElapsedNS),
		Err:            sp.Err,
	}
}
