package studysvc

import (
	"context"

	"daosim/internal/core"
	"daosim/internal/sim"
)

// Worker executes point jobs on behalf of the server's scheduler. The
// server owns a bounded pool of Worker instances and feeds each from one
// shared queue, so an implementation may hold per-slot state (a kernel
// arena, a remote connection, a pinned accelerator) without locking.
//
// The two return values separate the two failure planes. A point that ran
// and failed (bad variant, simulation error) comes back as a Point with
// Err set and a nil error — that is a result, and retrying it elsewhere
// would reproduce it. A non-nil error means the worker itself failed to
// produce any result (peer died mid-point, connection reset, truncated
// stream): the scheduler retries the job on another worker and marks this
// one down until a health probe readmits it. LocalWorker never returns an
// error — an in-process simulation always yields a Point.
//
// RunPoint must honor ctx: when the submitting client is gone the scheduler
// stops caring about the result, and a well-behaved worker returns promptly
// (a local simulation that is already running may finish — points are short
// — but a remote worker should propagate the cancellation). A Worker that
// also implements io.Closer is closed when its pool slot shuts down, the
// hook for releasing per-slot state; one that implements Prober is probed
// with exponential backoff while marked down.
type Worker interface {
	RunPoint(ctx context.Context, j core.PointJob) (core.Point, error)
}

// Prober is the optional health-check side of a Worker. The scheduler
// probes a down worker with exponential backoff and readmits it to the
// pool on the first nil return; RemoteWorker probes its peer's /v1/healthz.
// A down Worker without a Probe is readmitted after one backoff interval.
type Prober interface {
	Probe(ctx context.Context) error
}

// LocalWorker simulates points in-process through the same execution path
// as core.Runner (core.PointJob.ExecuteIn), so results through the server
// are byte-identical to direct runs. Each instance owns a kernel arena that
// recycles simulator state (event heap, pools, process coroutines) across
// the points its pool slot executes; the zero value is ready to use.
type LocalWorker struct {
	arena *sim.Arena
}

// RunPoint implements Worker. It never returns a worker-level error: an
// in-process simulation always produces a result (failures land in
// Point.Err).
func (w *LocalWorker) RunPoint(ctx context.Context, j core.PointJob) (core.Point, error) {
	if err := ctx.Err(); err != nil {
		return canceledPoint(j), nil
	}
	if w.arena == nil {
		w.arena = sim.NewArena()
	}
	return j.ExecuteIn(w.arena), nil
}

// Close implements io.Closer: it drains the worker's kernel arena, waiting
// for its coroutines to exit. The server closes each pool slot's
// Worker on shutdown, so a drained daosd returns to its baseline goroutine
// count.
func (w *LocalWorker) Close() error {
	if w.arena != nil {
		w.arena.Drain()
	}
	return nil
}

// canceledPoint fills a job's result slot when its submission was abandoned
// before the point ran.
func canceledPoint(j core.PointJob) core.Point {
	return core.Point{
		Nodes: j.Nodes,
		Ranks: j.Nodes * j.Cfg.PPN,
		Err:   "studysvc: submission canceled before the point ran",
	}
}
