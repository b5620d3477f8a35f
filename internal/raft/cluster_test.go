package raft

import (
	"time"

	"daosim/internal/sim"
)

// MemTransport is an in-memory message transport with configurable one-way
// latency, a partition matrix, and deterministic delivery order, for the
// package's tests; the svc package provides the fabric-backed transport the
// full cluster model runs on.
type MemTransport struct {
	sim     *sim.Sim
	latency time.Duration
	nodes   map[int]*Node
	blocked map[[2]int]bool

	// Dropped counts messages suppressed by partitions.
	Dropped int64
}

// NewMemTransport creates a transport with the given one-way latency.
func NewMemTransport(s *sim.Sim, latency time.Duration) *MemTransport {
	return &MemTransport{
		sim:     s,
		latency: latency,
		nodes:   make(map[int]*Node),
		blocked: make(map[[2]int]bool),
	}
}

// Attach registers a node for delivery.
func (t *MemTransport) Attach(n *Node) { t.nodes[n.ID()] = n }

// Partition blocks traffic in both directions between a and b.
func (t *MemTransport) Partition(a, b int) {
	t.blocked[[2]int{a, b}] = true
	t.blocked[[2]int{b, a}] = true
}

// Heal removes the partition between a and b.
func (t *MemTransport) Heal(a, b int) {
	delete(t.blocked, [2]int{a, b})
	delete(t.blocked, [2]int{b, a})
}

// Isolate partitions id from every other attached node.
func (t *MemTransport) Isolate(id int) {
	for other := range t.nodes {
		if other != id {
			t.Partition(id, other)
		}
	}
}

// HealAll removes every partition.
func (t *MemTransport) HealAll() { t.blocked = make(map[[2]int]bool) }

// Send implements Transport. p may be nil when invoked from a timer context.
func (t *MemTransport) Send(p *sim.Proc, from, to int, m interface{}, size int64) {
	if t.blocked[[2]int{from, to}] {
		t.Dropped++
		return
	}
	dst, ok := t.nodes[to]
	if !ok {
		return
	}
	t.sim.After(t.latency, func() { dst.mbox.Send(m) })
}

// Cluster bundles n nodes on a MemTransport for tests.
type Cluster struct {
	Sim       *sim.Sim
	Transport *MemTransport
	Nodes     []*Node
}

// NewCluster boots n nodes with DefaultConfig timeouts (scaled by the given
// latency) and the provided state machine factory.
func NewCluster(s *sim.Sim, n int, latency time.Duration, smFactory func() StateMachine) *Cluster {
	tr := NewMemTransport(s, latency)
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i
	}
	c := &Cluster{Sim: s, Transport: tr}
	for i := 0; i < n; i++ {
		node := NewNode(s, DefaultConfig(i, peers), tr, smFactory)
		tr.Attach(node)
		c.Nodes = append(c.Nodes, node)
	}
	return c
}

// Leader returns the current unique live leader, or nil.
func (c *Cluster) Leader() *Node {
	var leader *Node
	for _, n := range c.Nodes {
		if n.Role() == Leader && !n.killed && !n.stopped {
			if leader != nil {
				// Two leaders can coexist transiently in different terms;
				// report the one with the higher term.
				if n.Term() > leader.Term() {
					leader = n
				}
				continue
			}
			leader = n
		}
	}
	return leader
}

// WaitLeader runs the simulation until a leader emerges or the deadline
// passes, returning the leader or nil.
func (c *Cluster) WaitLeader(deadline time.Duration) *Node {
	step := 10 * time.Millisecond
	for c.Sim.Now() < deadline {
		c.Sim.RunUntil(c.Sim.Now() + step)
		if l := c.Leader(); l != nil {
			return l
		}
	}
	return nil
}

// Stop shuts down every node.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes {
		n.Stop()
	}
}
