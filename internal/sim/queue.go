package sim

// Queue is an unbounded FIFO message queue between simulated processes,
// playing the role Go channels play for real goroutines. Receivers block in
// arrival order when the queue is empty; senders never block. It is the
// mailbox primitive used by the Raft nodes and RPC dispatchers.
//
// Both the message buffer and the receiver line are compacting head-indexed
// fifos, so a long-lived mailbox settles into zero steady-state allocation
// even when it never fully drains.
type Queue struct {
	sim     *Sim
	name    string
	items   fifo[interface{}]
	waiters fifo[*Proc]
	closed  bool
}

// NewQueue returns an empty queue bound to s.
func NewQueue(s *Sim, name string) *Queue {
	return &Queue{sim: s, name: name}
}

// Send enqueues v and wakes the oldest blocked receiver, if any. Sending on
// a closed queue panics, mirroring Go channel semantics.
func (q *Queue) Send(v interface{}) {
	if q.closed {
		panic("sim: send on closed queue " + q.name)
	}
	q.items.Push(v)
	if q.waiters.Len() > 0 {
		q.sim.unpark(q.waiters.Pop())
	}
}

// Recv dequeues the oldest message, blocking p until one is available. The
// second result is false if the queue was closed and drained.
func (q *Queue) Recv(p *Proc) (interface{}, bool) {
	for q.items.Len() == 0 {
		if q.closed {
			return nil, false
		}
		q.waiters.Push(p)
		p.ParkIdle() // idle, not deadlocked: server loops legitimately wait here
	}
	return q.items.Pop(), true
}

// TryRecv dequeues without blocking; ok is false when empty.
func (q *Queue) TryRecv() (v interface{}, ok bool) {
	if q.items.Len() == 0 {
		return nil, false
	}
	return q.items.Pop(), true
}

// Close marks the queue closed and wakes every blocked receiver so it can
// observe the closure.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for q.waiters.Len() > 0 {
		q.sim.unpark(q.waiters.Pop())
	}
}

// Closed reports whether the queue has been closed.
func (q *Queue) Closed() bool { return q.closed }

// Len returns the number of queued messages.
func (q *Queue) Len() int { return q.items.Len() }
