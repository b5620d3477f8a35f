// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives every timed component in this repository: storage media,
// network fabric, DAOS engines, and the benchmark clients. Simulated
// "processes" are coroutines (iter.Pull), so exactly one of them runs at any
// instant and event ordering is fully deterministic: events fire in (time,
// insertion-sequence) order. Run and RunUntil are the only code that resumes
// a process. A process that blocks runs the dispatch loop on its own stack
// (see dispatch): when the next event is its own wake-up it simply carries
// on; otherwise it yields back to Run or RunUntil, naming the process to
// resume next. A coroutine switch never enters the Go scheduler, so handing
// control from one process to another wakes no OS thread.
//
// The design follows the classic process-interaction style (SimPy, CSIM):
// a process calls Sleep, acquires Resources, transfers bytes over SharedBW
// links, or blocks on Queues, and the scheduler advances virtual time between
// those interactions. Virtual time is a time.Duration measured from the start
// of the run.
//
// Four mechanisms keep the hot loop cheap without changing observable order:
//
//   - Timer-only interactions avoid suspending the process entirely. When a
//     process Sleeps and no other event is due at or before its wake time,
//     the kernel advances virtual time inline on the calling process
//     instead of scheduling a wake event and dispatching. A Transfer that
//     joins an idle SharedBW link gets the same treatment: a sole flow is a
//     pure timer (size over the per-flow rate), so the kernel advances time
//     inline with no event, no flow record, and no suspension.
//
//   - Events are plain pooled structs, not closures. Process wake-ups and
//     SharedBW completions carry a target pointer instead of an allocated
//     func, popped events are recycled through a free list (SharedBW flow
//     records are pooled the same way), and the event heap is hand-rolled
//     so pushes do not allocate.
//
//   - Same-instant wake-ups bypass the event heap. Unparking a process
//     always resumes it at the current instant, so unpark appends to a
//     FIFO ready-run queue instead of allocating a heap event; the
//     dispatch loop merges the ready queue with the heap by (time, seq),
//     which drains a wave of N simultaneous completions with N O(1) pops
//     instead of N heap push/pop round trips. Entries carry the sequence
//     number they would have been stamped with, so firing order is exactly
//     that of the heap-event formulation.
//
//   - Process coroutines come from a per-Sim arena. A finished process
//     body parks its coroutine (and its Proc shell) on a free stack instead
//     of exiting, and the next Spawn revives it — no goroutine or stack
//     creation, no allocation. When the event after a body's end spawns
//     onto that same shell, the coroutine runs the new body without a
//     switch. Sim.Reset rewinds a drained simulator to its post-New state
//     while keeping the arena, the event and flow pools, and the heap and
//     ready-queue storage, so a sweep can run thousands of simulations on
//     one kernel's allocations (see Arena).
//
// A panic in a process body reaches the Run or RunUntil caller carrying the
// process name and the stack that panicked, and leaves the Sim inert: later
// drives resume nothing.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

// KernelVersion identifies the observable behavior of the whole simulation
// stack: the event kernel plus every cost model layered on it (fabric,
// media, engine, placement, protocol paths). It participates in every
// content-addressed point-cache key (see internal/cache and the key builder
// in internal/core), so bumping it invalidates all previously cached study
// results at once. Bump it whenever a change anywhere in the simulated
// physics alters any measured number; a pure refactor that keeps traces
// byte-identical does not need a bump. Version 2 is the pooled-event,
// inline-fast-path kernel. Version 3 adds the zero-copy scatter-gather
// data path with no-materialize reads (value-neutral) and the O(1)
// virtual-time fair-share accounting in SharedBW, whose floating-point
// reordering can shift completion instants by a nanosecond.
const KernelVersion = 3

// maxTime is the largest representable virtual time; Run uses it as the
// inline-advance horizon.
const maxTime = time.Duration(1<<63 - 1)

// Sim is a discrete-event scheduler. The zero value is not usable; call New.
type Sim struct {
	now      time.Duration
	seq      uint64
	queue    eventHeap
	free     []*event    // recycled events; popped entries return here
	flowFree []*flow     // recycled SharedBW flow records
	ready    []readyProc // procs unparked at the current instant, FIFO
	rhead    int         // index of the first undrained ready entry
	nproc    int         // live (spawned, not yet finished) processes
	parked   int         // processes blocked on a resource/queue (no pending event)
	rng      *RNG

	// next is the process a yielding coroutine names for drive to resume;
	// nil ends the drive.
	next *Proc
	// idle is the coroutine arena's free stack: Proc shells whose
	// coroutines finished a body and wait for reuse. procs holds every
	// shell started and not yet drained (idle + live), so a discard can
	// stop them all.
	idle  []*Proc
	procs []*Proc
	// broken is set for the length of each drive and stays set when a
	// process panics out of it; a broken Sim resumes nothing. stopping is
	// set by discard: a process that blocks then unwinds instead of
	// dispatching.
	broken, stopping bool

	// limit is the horizon of the innermost Run/RunUntil drive; the Sleep
	// fast path must not advance time past it.
	limit time.Duration
	// noFastPath disables the inline fast paths — Sleep and uncontended
	// SharedBW.Transfer — (test hook: the regression tests compare fast
	// and slow traces for identical order).
	noFastPath bool
}

// New returns a simulator whose random source is seeded with seed.
func New(seed uint64) *Sim { return &Sim{rng: NewRNG(seed)} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// RNG returns the simulator's deterministic random source.
func (s *Sim) RNG() *RNG { return s.rng }

// event is a scheduled occurrence. Events with equal times fire in insertion
// order, which keeps runs reproducible. Exactly one of fire, proc, spawn, or
// bw is set: fire is a generic callback, proc wakes a parked process, spawn
// starts a new process (the event carries the body, name and WaitGroup, if
// any; the process draws its coroutine from the arena only when the event
// fires, so a batch of pre-scheduled future processes reuses the coroutines
// of the ones that finished before them), and bw checks a SharedBW
// completion (gen guards against stale, superseded completions). Events are
// pooled: once popped they are reset and recycled, so no component may
// retain a popped event.
type event struct {
	at    time.Duration
	seq   uint64
	fire  func()
	proc  *Proc
	spawn func(p *Proc)
	sname string
	swg   *WaitGroup
	bw    *SharedBW
	gen   uint64
	// idx is the event's position in the heap (-1 when unqueued); it lets
	// SharedBW reschedule its owned completion event in place.
	idx int
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). It avoids
// container/heap's interface{} indirection on the hottest kernel path and
// tracks each event's position so queued events can be re-keyed in place.
type eventHeap []*event

// Len returns the number of queued events.
func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].idx = i
		h[parent].idx = parent
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		h[i].idx = i
		h[small].idx = small
		i = small
	}
}

func (h *eventHeap) push(e *event) {
	e.idx = len(*h)
	*h = append(*h, e)
	h.siftUp(e.idx)
}

// fix restores heap order after the event at position i was re-keyed.
func (h eventHeap) fix(i int) {
	h.siftDown(i)
	h.siftUp(i)
}

func (h *eventHeap) pop() *event {
	q := *h
	e := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[0].idx = 0
	q[n] = nil
	q = q[:n]
	*h = q
	q.siftDown(0)
	e.idx = -1 // after the swap: popping the last element must leave -1
	return e
}

// alloc takes an event from the free list (or allocates one), stamping it
// with the given time and the next insertion sequence.
func (s *Sim) alloc(t time.Duration) *event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = new(event)
	}
	e.at = t
	e.seq = s.seq
	s.seq++
	return e
}

// recycle resets a popped event and returns it to the free list.
func (s *Sim) recycle(e *event) {
	e.fire = nil
	e.proc = nil
	e.spawn = nil
	e.sname = ""
	e.swg = nil
	e.bw = nil
	e.gen = 0
	s.free = append(s.free, e)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would violate causality.
func (s *Sim) At(t time.Duration, fn func()) {
	e := s.alloc(t)
	e.fire = fn
	s.queue.push(e)
}

// After schedules fn to run d from now.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// schedProc schedules a wake-up for p at absolute time t without allocating a
// closure: the dispatch loop resumes p directly when the event pops.
func (s *Sim) schedProc(t time.Duration, p *Proc) {
	e := s.alloc(t)
	e.proc = p
	s.queue.push(e)
}

// schedBW (re)schedules b's completion check for absolute time t. Each
// SharedBW owns one persistent event: rescheduling while it is still queued
// updates it in place and re-sifts (an arrival wave that supersedes the
// completion N times costs N sifts, not N pushes plus N stale pops later),
// and the event is pushed afresh only after it has popped. The event always
// carries a freshly consumed sequence number, exactly as if a new event had
// been allocated, so heap order is identical to the push-and-supersede
// formulation. Owned events never enter the recycling pool.
func (s *Sim) schedBW(t time.Duration, b *SharedBW) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := b.ev
	if e == nil {
		e = &event{bw: b, idx: -1}
		b.ev = e
	}
	e.at = t
	e.seq = s.seq
	s.seq++
	e.gen = b.gen
	if e.idx >= 0 {
		s.queue.fix(e.idx)
	} else {
		s.queue.push(e)
	}
}

// readyProc is a pending same-instant resumption. seq is the insertion
// sequence the wake-up would have carried as a heap event, so the dispatch
// loop can merge the ready queue with the heap in exact (time, seq) order.
type readyProc struct {
	seq  uint64
	proc *Proc
}

// readyLen returns the number of undrained ready entries.
func (s *Sim) readyLen() int { return len(s.ready) - s.rhead }

// popReady removes the front ready entry. The backing slice is reclaimed
// wholesale once drained, so a completion wave costs one append and one
// index bump per wake-up.
func (s *Sim) popReady() {
	s.ready[s.rhead].proc = nil
	s.rhead++
	if s.rhead == len(s.ready) {
		s.ready = s.ready[:0]
		s.rhead = 0
	}
}

// readyFirst reports whether the front ready entry precedes the heap root
// in (time, seq) order. Ready entries are always stamped at the current
// instant, and the heap can never hold an event in the past, so the heap
// wins only with an event at now bearing a smaller sequence. Must not be
// called with an empty ready queue.
func (s *Sim) readyFirst() bool {
	return len(s.queue) == 0 || s.queue[0].at > s.now || s.queue[0].seq > s.ready[s.rhead].seq
}

// dispatch runs the dispatch loop until an event resumes a process, and
// returns that process: a ready entry, a heap wake-up, or a spawn, bound
// here to an arena shell. SharedBW completions and fire callbacks run inline
// on the calling stack. It returns nil when the drive ends: the queue
// drained, or the next event lies past s.limit.
//
// The kernel has no scheduler goroutine. drive dispatches first; after
// that, each process that blocks or finishes dispatches on its own stack
// and either carries on, when the result is itself, or yields it to drive
// (see yieldWait). Event order is identical to a centralized loop: only
// the stack that executes each (time, seq) step differs.
func (s *Sim) dispatch() *Proc {
	for {
		if s.rhead < len(s.ready) {
			if s.readyFirst() {
				p := s.ready[s.rhead].proc
				s.popReady()
				return p
			}
		} else if len(s.queue) == 0 {
			return nil
		}
		if s.queue[0].at > s.limit {
			if s.now < s.limit {
				s.now = s.limit
			}
			return nil
		}
		e := s.queue.pop()
		s.now = e.at
		switch {
		case e.proc != nil:
			p := e.proc
			s.recycle(e)
			return p
		case e.bw != nil:
			// Owned by the SharedBW (see schedBW); never recycled.
			if e.gen == e.bw.gen {
				e.bw.complete()
			}
		case e.spawn != nil:
			// Bind the new process to an arena shell now, at fire time:
			// shells freed by processes that finished earlier in the run are
			// on the free stack and get reused — possibly the very shell
			// whose finished body is running this dispatch (see run).
			p := s.allocProc()
			p.name = e.sname
			p.body = e.spawn
			p.wg = e.swg
			s.recycle(e)
			return p
		case e.fire != nil:
			fn := e.fire
			s.recycle(e)
			fn()
		default:
			s.recycle(e) // cancelled/stale
		}
	}
}

// drive resumes processes until the drive ends, and is the only caller of a
// coroutine's resume: each resumed process runs until it yields, naming the
// next one in s.next. It reports false, resuming nothing, on a broken Sim.
// A process panic leaves the Sim broken, since the panic propagates out of
// resume before the flag is cleared.
func (s *Sim) drive() bool {
	if s.broken {
		return false
	}
	s.broken = true
	for p := s.dispatch(); p != nil; p = s.next {
		s.next = nil
		p.resume()
	}
	s.broken = false
	return true
}

// Run drives the simulation until no events remain. It returns the final
// virtual time. If processes are still blocked on resources when the event
// queue drains, Run panics: that is a deadlock in the modelled system and
// continuing would silently strand its coroutines. On a Sim broken by a
// process panic, Run returns at once.
func (s *Sim) Run() time.Duration {
	s.limit = maxTime
	if s.drive() && s.parked > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) parked with no pending events at %v", s.parked, s.now))
	}
	return s.now
}

// RunUntil drives the simulation until virtual time passes limit or no
// events remain, whichever comes first. Processes may still be live when it
// returns. It reports whether the event queue drained. On a Sim broken by a
// process panic it returns true at once: nothing will run again.
func (s *Sim) RunUntil(limit time.Duration) bool {
	s.limit = limit
	return !s.drive() || len(s.queue) == 0
}

// Quiesced reports whether the simulation has fully drained: no live or
// parked processes, no pending events, no ready resumptions, and no process
// panic. A quiesced Sim may be rewound with Reset.
func (s *Sim) Quiesced() bool {
	return !s.broken && s.nproc == 0 && s.parked == 0 && len(s.queue) == 0 && s.readyLen() == 0
}

// Reset rewinds a quiesced simulator to the state New(seed) would return,
// while keeping every allocation worth keeping: the event and flow free
// lists, the heap and ready-queue backing arrays, and the arena of parked
// process coroutines. A run on a Reset simulator is byte-identical to a run
// on a fresh one — virtual time, the insertion-sequence counter, and the
// random stream all restart from their seeds, and pooled storage carries no
// observable state (recycled events and flows are cleared, and the heap and
// ready backings are length-zero). Reset panics on a simulator that has not
// quiesced: live processes cannot be rewound.
func (s *Sim) Reset(seed uint64) {
	if !s.Quiesced() {
		panic(fmt.Sprintf("sim: Reset of a non-quiesced simulator: %d live, %d parked, %d events, %d ready",
			s.nproc, s.parked, len(s.queue), s.readyLen()))
	}
	s.now = 0
	s.seq = 0
	s.limit = 0
	s.rng.Seed(seed)
}

// discard retires a Sim that will never run again by stopping every
// coroutine it started. An idle shell exits. A live process's pending
// yieldWait panics with errStopped, so its body unwinds — its deferred calls
// run — and its coroutine exits. While stopping is set, a process that
// blocks (say, in one of those deferred calls) panics the same way instead
// of dispatching, so no event fires during a discard.
func (s *Sim) discard() {
	s.broken, s.stopping = true, true
	for _, p := range s.procs {
		p.stop()
	}
	s.procs, s.idle = nil, nil
}

// Workers returns the number of live arena coroutines (idle shells plus
// running processes). It exists for leak tests: after a Sim is discarded it
// must be zero.
func (s *Sim) Workers() int { return len(s.procs) }

// Proc is a handle held by a simulated process. All blocking operations
// (Sleep, Resource.Acquire, Queue.Recv, ...) take the Proc so the kernel can
// suspend and resume the process's coroutine.
type Proc struct {
	sim  *Sim
	name string
	body func(p *Proc)
	// wg, when set, is the WaitGroup whose Go spawned the process: run
	// calls its Done once body returns.
	wg *WaitGroup
	// resume and stop are the shell coroutine's iter.Pull pair; only drive
	// resumes. yield suspends the coroutine back to drive and reports
	// false once stop was called.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Spawn creates a process that begins running body at the current virtual
// time. body executes on its own coroutine but in strict alternation with
// every other process, so no locking is required inside the simulation.
func (s *Sim) Spawn(name string, body func(p *Proc)) {
	s.SpawnAt(s.now, name, body)
}

// SpawnAt creates a process that begins running body at virtual time t. The
// process is bound to an arena coroutine — a shell recycled from a finished
// process when one is free, a fresh coroutine otherwise — when its spawn
// event fires, so processes scheduled for the future reuse the coroutines
// of processes that finish before then.
func (s *Sim) SpawnAt(t time.Duration, name string, body func(p *Proc)) {
	s.spawnAt(t, name, body, nil)
}

// spawnAt schedules a process start, for SpawnAt and WaitGroup.Go; a
// non-nil wg is told Done when body returns.
func (s *Sim) spawnAt(t time.Duration, name string, body func(p *Proc), wg *WaitGroup) {
	s.nproc++
	e := s.alloc(t)
	e.spawn = body
	e.sname = name
	e.swg = wg
	s.queue.push(e)
}

// allocProc takes a parked process shell from the arena's free stack, or
// makes a fresh coroutine for one. A fresh coroutine starts at its first
// resume, after the caller has set the shell's name and body.
func (s *Sim) allocProc() *Proc {
	if n := len(s.idle); n > 0 {
		p := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		return p
	}
	p := &Proc{sim: s}
	p.resume, p.stop = iter.Pull(p.run)
	s.procs = append(s.procs, p)
	return p
}

// errStopped is the panic yieldWait raises in a process whose coroutine is
// being stopped; run recovers it, which ends the coroutine.
var errStopped = errors.New("sim: process stopped")

// procPanic is a process body's panic on its way to the Run or RunUntil
// caller. iter.Pull recovers a coroutine's panic and raises it again on the
// goroutine that resumed it, losing the frames that panicked, so run records
// the stack before it unwinds.
type procPanic struct {
	proc  string
	value any
	stack []byte
}

func (e *procPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n\n%s", e.proc, e.value, e.stack)
}

// run is an arena coroutine's lifetime: execute the assigned body, tell its
// WaitGroup, if any, park the shell on the free stack, and dispatch until
// drive resumes the shell with its next body — or, when the next event
// spawns onto this very shell, carry straight on. Stopping the coroutine
// ends it through errStopped.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil && r != errStopped {
			panic(&procPanic{proc: p.name, value: r, stack: debug.Stack()})
		}
	}()
	s := p.sim
	for {
		body, wg := p.body, p.wg
		p.body, p.wg = nil, nil
		body(p)
		if wg != nil {
			wg.Done()
		}
		s.nproc--
		s.idle = append(s.idle, p)
		p.yieldWait()
	}
}

// yieldWait suspends the calling process until an event resumes it; the
// caller must have arranged for that event. The process dispatches on its
// own stack, so when the next event is its own wake-up it returns at once
// with no switch. Otherwise it yields to drive, naming the process to
// resume next. A stopped coroutine panics with errStopped instead.
func (p *Proc) yieldWait() {
	s := p.sim
	if s.stopping {
		panic(errStopped)
	}
	next := s.dispatch()
	if next == p {
		return
	}
	s.next = next
	if !p.yield(struct{}{}) {
		panic(errStopped)
	}
}

// park blocks the process indefinitely; some other component must call
// unpark to schedule its resumption. The parked counter lets Run distinguish
// a drained simulation from a deadlocked one.
func (p *Proc) park() {
	p.sim.parked++
	p.yieldWait()
	p.sim.parked--
}

// unpark schedules p to resume at the current virtual time. It enqueues on
// the ready-run queue rather than the event heap: the resumption is stamped
// with the sequence number a heap event would have carried, so the dispatch
// loop fires it in the identical (time, seq) slot at O(1) cost. When the
// backing array fills while at least half of it is drained prefix, the live
// tail compacts to the front instead of growing, so a workload whose ready
// queue never fully drains still settles into zero steady-state allocation.
// This hand-inlines fifo.Push's compaction scheme (the ready queue stays
// hand-rolled because readyFirst peeks the head on the dispatch hot path);
// keep the two in sync.
func (s *Sim) unpark(p *Proc) {
	if len(s.ready) == cap(s.ready) && s.rhead > 0 && s.rhead >= cap(s.ready)/2 {
		n := copy(s.ready, s.ready[s.rhead:])
		for i := n; i < len(s.ready); i++ {
			s.ready[i] = readyProc{}
		}
		s.ready = s.ready[:n]
		s.rhead = 0
	}
	s.ready = append(s.ready, readyProc{seq: s.seq, proc: p})
	s.seq++
}

// ParkIdle blocks the process until Unpark, without counting toward deadlock
// detection. It is the building block for external blocking primitives
// (mailbox receives, future waits) where indefinite idling is legitimate:
// a server loop parked on an empty mailbox when the run drains is idle, not
// deadlocked. Its coroutine returns to the arena when the process exits,
// and is stopped, unwinding the body, when an Arena discards the Sim.
func (p *Proc) ParkIdle() { p.yieldWait() }

// Unpark schedules a process blocked in ParkIdle to resume at the current
// virtual time.
func (s *Sim) Unpark(p *Proc) { s.unpark(p) }

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process still yields, letting same-time events fire
// in order).
//
// Fast path: when no other event is due at or before the wake time (and the
// wake time is within the current drive's horizon), sleeping cannot
// interleave with anything, so the kernel advances virtual time inline and
// returns without suspending the process or touching the event heap. Relative
// event order is exactly that of the slow path.
func (p *Proc) Sleep(d time.Duration) {
	s := p.sim
	if d < 0 {
		d = 0
	}
	wake := s.now + d
	// wake >= s.now rejects additive overflow; the slow path's alloc then
	// panics on it loudly instead of moving the clock backward. A pending
	// ready entry is an event due now, so it also forces the slow path.
	if !s.noFastPath && wake >= s.now && wake <= s.limit && s.rhead == len(s.ready) && (len(s.queue) == 0 || s.queue[0].at > wake) {
		s.now = wake
		return
	}
	s.schedProc(wake, p)
	p.yieldWait()
}

// WaitGroup coordinates fork/join between simulated processes, mirroring
// sync.WaitGroup but driven by virtual time. The first waiter is held in
// the group itself, so the usual fork/join (one parent waiting) allocates
// nothing beyond the group.
type WaitGroup struct {
	sim   *Sim
	count int
	// first and more are the waiters, in arrival order.
	first *Proc
	more  []*Proc
}

// NewWaitGroup returns a WaitGroup bound to s.
func NewWaitGroup(s *Sim) *WaitGroup { return &WaitGroup{sim: s} }

// Add increments the counter by n.
func (wg *WaitGroup) Add(n int) { wg.count += n }

// Done decrements the counter, waking all waiters when it reaches zero.
func (wg *WaitGroup) Done() {
	wg.count--
	if wg.count < 0 {
		panic("sim: WaitGroup counter negative")
	}
	if wg.count == 0 && wg.first != nil {
		wg.sim.unpark(wg.first)
		for _, w := range wg.more {
			wg.sim.unpark(w)
		}
		wg.first, wg.more = nil, nil
	}
}

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	if wg.first == nil {
		wg.first = p
	} else {
		wg.more = append(wg.more, p)
	}
	p.park()
}

// Go spawns body as a child process tracked by the WaitGroup: Done runs
// when body returns.
func (wg *WaitGroup) Go(name string, body func(p *Proc)) {
	wg.Add(1)
	wg.sim.spawnAt(wg.sim.now, name, body, wg)
}
