package sim

import (
	"fmt"
	"math"
	"time"
)

// Resource is a counted resource with FIFO admission, equivalent to a
// capacity-bounded server pool (e.g. the service xstreams of a DAOS engine
// target). Processes that Acquire beyond capacity queue in arrival order.
type Resource struct {
	sim      *Sim
	name     string
	capacity int
	inUse    int

	// waiters queue processes blocked in Acquire, FIFO. The compacting
	// fifo keeps one backing array for the resource's lifetime — the old
	// append/[1:] pattern reallocated it every few operations, the steady
	// 16 B/op heap spill BenchmarkResourceContention used to carry.
	waiters fifo[*Proc]

	// Busy accumulates capacity-seconds of use for utilisation reporting.
	busy     time.Duration
	lastTick time.Duration

	// MaxQueue tracks the longest observed waiter queue.
	MaxQueue int
}

// NewResource returns a resource with the given concurrency capacity.
func NewResource(s *Sim, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{sim: s, name: name, capacity: capacity}
}

// Sim returns the owning simulator.
func (r *Resource) Sim() *Sim { return r.sim }

func (r *Resource) account() {
	r.busy += time.Duration(r.inUse) * (r.sim.now - r.lastTick)
	r.lastTick = r.sim.now
}

// Acquire takes one unit of the resource, blocking p FIFO if none is free.
// Acquiring below capacity is entirely inline: a branch and two counter
// updates, no event, no parking.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.account()
		r.inUse++
		return
	}
	r.waiters.Push(p)
	if q := r.waiters.Len(); q > r.MaxQueue {
		r.MaxQueue = q
	}
	p.park()
}

// Release returns one unit. With nobody queued this is the inline fast
// path, mirroring the Sleep/Transfer fast paths but unconditional: an
// uncontended release can neither wake nor reorder anything, so it skips
// the ready queue and the event heap entirely and costs a branch and two
// counter updates. If processes are queued the head inherits the unit
// directly, preserving FIFO order — its resumption enqueues on the
// same-instant ready-run queue and fires when the releasing process next
// yields, exactly as a heap event would, at O(1) and zero allocation.
func (r *Resource) Release() {
	if r.waiters.Len() == 0 {
		if r.inUse <= 0 {
			panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
		}
		r.account()
		r.inUse--
		return
	}
	r.sim.unpark(r.waiters.Pop()) // the unit passes to the head; inUse unchanged
}

// Use runs the resource for d: acquire, hold for d, release.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// Utilisation returns mean busy fraction over the run so far.
func (r *Resource) Utilisation() float64 {
	r.account()
	total := time.Duration(r.capacity) * r.sim.now
	if total == 0 {
		return 0
	}
	return float64(r.busy) / float64(total)
}

// SharedBW models a bandwidth resource under processor sharing: N concurrent
// transfers each progress at Rate/N (optionally clamped to a per-flow cap).
// This is the standard fluid model for links, NICs and storage media
// channels, and it is what makes contention curves realistic: adding flows
// stretches everyone's completion time, and completions are recomputed at
// every arrival/departure instant.
//
// Fair-share accounting exploits the uniform service rate: every active flow
// accrues the identical credit, so progress is tracked once for the whole
// link as a cumulative virtual-service counter vt (bytes served per flow
// since the link last went idle). A flow arriving when the counter reads vt
// is tagged with an immutable finish tag vt+size and completes when the
// counter reaches it; its remaining bytes at any instant are finish-vt. The
// flows live in a min-heap keyed by (finish, arrival) — keys never change,
// so the heap needs no re-sifting — which keeps the earliest completion at
// the root: arrivals and departures are O(log N), and crediting elapsed
// service is a single counter addition, O(1) per distinct instant instead of
// the one-subtraction-per-flow sweep of kernel version 2. The counter resets
// to zero whenever the link drains, bounding its magnitude (and the absolute
// float error of finish-vt) by the largest burst, not the length of the run.
// Deriving remainders from the cumulative counter reorders the
// floating-point arithmetic, so completion instants can shift by a
// nanosecond relative to the per-flow credit stream: the change rides the
// KernelVersion 3 bump and the regenerated golden figures.
type SharedBW struct {
	sim  *Sim
	name string
	// rate is the aggregate capacity in bytes per second.
	rate float64
	// flowCap, if positive, limits any single flow to this many bytes/s
	// (e.g. a single QP / endpoint processing ceiling).
	flowCap float64

	// flows is a min-heap by (finish, seq). Flow records are pooled on
	// the owning Sim's free list.
	flows flowHeap
	// vt is the cumulative virtual service in bytes per flow since the link
	// last went idle; flow finish tags are expressed against it.
	vt float64
	// wave is scratch for same-instant completion batches, retained to
	// avoid per-wave allocation.
	wave []*flow
	// arrivals numbers flows in arrival order: simultaneous completions
	// must wake their processes deterministically (first-arrived first).
	arrivals uint64
	last     time.Duration
	gen      uint64
	// ev is the link's persistent completion event, rescheduled in place
	// while queued (see Sim.schedBW).
	ev *event
	// moved counts bytes of completed flows plus inline fast-path
	// transfers; it is exact (never credited past a flow's size).
	moved    float64
	maxFlows int
}

// flow is one in-flight transfer.
type flow struct {
	// finish is the link virtual-service level at which the flow completes:
	// the vt observed at arrival plus the flow's size. Immutable.
	finish float64
	size   float64
	seq    uint64
	proc   *Proc
}

// flowHeap is a hand-rolled binary min-heap ordered by (finish, seq):
// earliest completion first, ties broken by arrival order. Finish tags are
// immutable, so the heap never needs re-sifting between pushes and pops.
type flowHeap []*flow

func (h flowHeap) less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}

func (h *flowHeap) push(f *flow) {
	*h = append(*h, f)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *flowHeap) pop() *flow {
	q := *h
	f := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.less(l, small) {
			small = l
		}
		if r < n && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return f
}

// allocFlow takes a flow record from the free list (or allocates one).
func (s *Sim) allocFlow() *flow {
	if n := len(s.flowFree); n > 0 {
		f := s.flowFree[n-1]
		s.flowFree[n-1] = nil
		s.flowFree = s.flowFree[:n-1]
		return f
	}
	return new(flow)
}

// recycleFlow resets a completed flow and returns it to the free list.
func (s *Sim) recycleFlow(f *flow) {
	*f = flow{}
	s.flowFree = append(s.flowFree, f)
}

// NewSharedBW returns a fair-shared bandwidth resource of rate bytes/s.
// flowCap > 0 additionally caps each individual flow.
func NewSharedBW(s *Sim, name string, rate, flowCap float64) *SharedBW {
	if rate <= 0 {
		panic("sim: SharedBW rate must be positive")
	}
	return &SharedBW{sim: s, name: name, rate: rate, flowCap: flowCap}
}

// perFlow returns the current per-flow service rate in bytes/s.
func (b *SharedBW) perFlow() float64 {
	n := len(b.flows)
	if n == 0 {
		return 0
	}
	r := b.rate / float64(n)
	if b.flowCap > 0 && r > b.flowCap {
		r = b.flowCap
	}
	return r
}

// advance credits the elapsed service since last to the virtual-time
// counter: one addition regardless of flow count. A same-instant arrival or
// departure wave hits the now == last early return for every event after
// the first.
func (b *SharedBW) advance() {
	now := b.sim.now
	if now == b.last {
		return
	}
	elapsed := now - b.last
	b.last = now
	if len(b.flows) == 0 {
		return
	}
	b.vt += b.perFlow() * elapsed.Seconds()
}

// reschedule supersedes any pending completion and schedules the next, read
// off the heap root instead of a rescan. The link's owned event is re-keyed
// in place when still queued (no stale events to pop later); bumping the
// generation additionally guards a completion that already popped.
func (b *SharedBW) reschedule() {
	b.gen++
	if len(b.flows) == 0 {
		return
	}
	minRem := b.flows[0].finish - b.vt
	rate := b.perFlow()
	dt := time.Duration(math.Ceil(minRem / rate * 1e9)) // seconds -> ns, round up
	if dt < 0 {
		dt = 0
	}
	b.sim.schedBW(b.sim.now+dt, b)
}

// complete finishes every flow whose finish tag the virtual-time counter
// has reached, waking them in arrival order. The drained set pops off the
// heap in (finish, seq) order; an insertion sort restores arrival order
// (waves of equal-size simultaneous arrivals pop already sorted, making the
// sort a linear pass).
func (b *SharedBW) complete() {
	b.advance()
	const eps = 0.5 // half a byte of float slack
	wave := b.wave[:0]
	for len(b.flows) > 0 && b.flows[0].finish-b.vt <= eps {
		wave = append(wave, b.flows.pop())
	}
	for i := 1; i < len(wave); i++ {
		f := wave[i]
		j := i
		for j > 0 && wave[j-1].seq > f.seq {
			wave[j] = wave[j-1]
			j--
		}
		wave[j] = f
	}
	for i, f := range wave {
		b.moved += f.size // exact: a completed flow moved what it asked for
		b.sim.unpark(f.proc)
		b.sim.recycleFlow(f)
		wave[i] = nil
	}
	b.wave = wave[:0]
	if len(b.flows) == 0 {
		// Idle link: rebase virtual time so the counter's magnitude — and
		// the absolute error of finish-vt — is bounded by one busy period.
		b.vt = 0
	}
	b.reschedule()
}

// Transfer moves size bytes through the shared resource, blocking p until the
// flow completes under fair sharing. Zero or negative sizes return
// immediately.
//
// Fast path: a transfer joining an idle link is a pure timer — it completes
// after size divided by the per-flow rate, and nothing can interleave if no
// other event is due at or before that instant — so the kernel advances
// virtual time inline exactly like the Sleep fast path: no event, no flow
// record, no park/unpark. The completion instant is computed with the very
// expression the slow path would use, so fast- and slow-path runs of the
// same workload stay bit-for-bit identical.
func (b *SharedBW) Transfer(p *Proc, size int64) {
	if size <= 0 {
		return
	}
	s := b.sim
	if len(b.flows) == 0 && !s.noFastPath {
		r := b.rate
		if b.flowCap > 0 && b.flowCap < r {
			r = b.flowCap
		}
		dt := time.Duration(math.Ceil(float64(size) / r * 1e9))
		wake := s.now + dt
		if dt >= 0 && wake >= s.now && wake <= s.limit && s.rhead == len(s.ready) &&
			(len(s.queue) == 0 || s.queue[0].at > wake) {
			s.now = wake
			b.last = wake
			b.moved += float64(size)
			if b.maxFlows < 1 {
				b.maxFlows = 1
			}
			return
		}
	}
	b.advance()
	f := s.allocFlow()
	f.size = float64(size)
	f.finish = b.vt + f.size
	f.seq = b.arrivals
	b.arrivals++
	f.proc = p
	b.flows.push(f)
	if len(b.flows) > b.maxFlows {
		b.maxFlows = len(b.flows)
	}
	b.reschedule()
	p.park()
}

// Active returns the number of in-flight flows.
func (b *SharedBW) Active() int { return len(b.flows) }

// MaxFlows returns the peak number of concurrent flows observed.
func (b *SharedBW) MaxFlows() int { return b.maxFlows }

// BytesMoved returns total bytes transferred so far: completed flows count
// their full requested size, in-flight flows their accrued credit clamped to
// their size, so completion overshoot (the scheduling instant rounds up to
// whole nanoseconds) never over-credits the total.
func (b *SharedBW) BytesMoved() float64 {
	b.advance()
	total := b.moved
	for _, f := range b.flows {
		done := f.size - (f.finish - b.vt)
		if done < 0 {
			done = 0
		}
		if done > f.size {
			done = f.size
		}
		total += done
	}
	return total
}
