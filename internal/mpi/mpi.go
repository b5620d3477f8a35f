// Package mpi provides a miniature MPI runtime over the simulation kernel:
// ranks as simulated processes, and the collectives the I/O middleware and
// the IOR harness need (Barrier, Allreduce, and the personalized all-to-all
// exchange). Collectives follow MPI call-order matching semantics: every
// rank's n-th call on a tag joins the same instance.
package mpi

import (
	"fmt"
	"math"
	"time"

	"daosim/internal/fabric"
	"daosim/internal/sim"
)

// World is an MPI job: a fixed set of ranks mapped onto client nodes.
type World struct {
	sim   *sim.Sim
	fab   *fabric.Fabric
	nodes []*fabric.Node // per-rank hosting node
	insts map[string]*collective
}

// NewWorld creates a world with one entry in nodes per rank (repeat nodes
// for multiple ranks per node).
func NewWorld(s *sim.Sim, f *fabric.Fabric, nodes []*fabric.Node) *World {
	if len(nodes) == 0 {
		panic("mpi: empty world")
	}
	return &World{sim: s, fab: f, nodes: nodes, insts: make(map[string]*collective)}
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.nodes) }

// Rank is one process's view of the world.
type Rank struct {
	world *World
	id    int
	seqs  map[string]int
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.Size() }

// Node returns the fabric node hosting this rank.
func (r *Rank) Node() *fabric.Node { return r.world.nodes[r.id] }

// Parallel runs body on every rank concurrently and returns when all ranks
// have finished, reporting the wall-clock (virtual) span.
func (w *World) Parallel(p *sim.Proc, body func(p *sim.Proc, r *Rank)) time.Duration {
	start := p.Now()
	wg := sim.NewWaitGroup(w.sim)
	for i := 0; i < w.Size(); i++ {
		r := &Rank{world: w, id: i, seqs: make(map[string]int)}
		wg.Go(fmt.Sprintf("rank%d", i), func(cp *sim.Proc) {
			body(cp, r)
		})
	}
	wg.Wait(p)
	return p.Now() - start
}

// collective is one in-flight collective instance.
type collective struct {
	n       int
	arrived int
	waiters []*sim.Proc
	vals    map[int]interface{}
	result  interface{}
	done    bool
}

// join implements rendezvous: each rank contributes val; the last arrival
// computes the result with reduce and wakes everyone.
func (r *Rank) join(p *sim.Proc, tag string, val interface{}, reduce func(vals map[int]interface{}) interface{}) interface{} {
	w := r.world
	seq := r.seqs[tag]
	r.seqs[tag]++
	key := fmt.Sprintf("%s#%d", tag, seq)
	inst, ok := w.insts[key]
	if !ok {
		inst = &collective{n: w.Size(), vals: make(map[int]interface{})}
		w.insts[key] = inst
	}
	inst.vals[r.id] = val
	inst.arrived++
	if inst.arrived < inst.n {
		inst.waiters = append(inst.waiters, p)
		p.ParkIdle()
		return inst.result
	}
	// Last arrival: reduce, release, and clean up the instance.
	if reduce != nil {
		inst.result = reduce(inst.vals)
	}
	inst.done = true
	for _, wt := range inst.waiters {
		w.sim.Unpark(wt)
	}
	delete(w.insts, key)
	return inst.result
}

// latencyFactor charges a log2(n) software latency for a collective's
// synchronization rounds.
func (r *Rank) latencyFactor(p *sim.Proc) {
	n := r.Size()
	if n <= 1 {
		return
	}
	rounds := int(math.Ceil(math.Log2(float64(n))))
	p.Sleep(time.Duration(rounds) * r.world.fab.Config().WireLatency * 2)
}

// Barrier blocks until every rank arrives.
func (r *Rank) Barrier(p *sim.Proc) {
	r.join(p, "barrier", nil, nil)
	r.latencyFactor(p)
}

// AllreduceFloat combines one float64 per rank with op ("sum", "min",
// "max") and returns the result on every rank.
func (r *Rank) AllreduceFloat(p *sim.Proc, val float64, op string) float64 {
	out := r.join(p, "allreduce-"+op, val, func(vals map[int]interface{}) interface{} {
		acc := math.NaN()
		for _, v := range vals {
			f := v.(float64)
			switch {
			case math.IsNaN(acc):
				acc = f
			case op == "sum":
				acc += f
			case op == "min" && f < acc:
				acc = f
			case op == "max" && f > acc:
				acc = f
			}
		}
		return acc
	})
	r.latencyFactor(p)
	return out.(float64)
}

// AllreduceDuration reduces a duration with "min"/"max"/"sum".
func (r *Rank) AllreduceDuration(p *sim.Proc, d time.Duration, op string) time.Duration {
	return time.Duration(r.AllreduceFloat(p, float64(d), op))
}

// Received is one item delivered by Exchange, tagged with its sender.
type Received struct {
	From int
	Val  interface{}
}

// Exchange performs a personalized all-to-all: sizes[i] bytes go from this
// rank to rank i, and vals carry the payload descriptors. Every rank gets
// back the items addressed to it, tagged with their senders and ordered by
// sender rank. This backs MPI-I/O's two-phase collective shuffle.
func (r *Rank) Exchange(p *sim.Proc, vals []interface{}, sizes []int64) []Received {
	if len(vals) != r.Size() || len(sizes) != r.Size() {
		panic("mpi: Exchange needs one value and size per rank")
	}
	// Charge the outgoing transfers (skipping self and empty slots).
	for dst, size := range sizes {
		if dst == r.id || size <= 0 {
			continue
		}
		r.world.fab.Move(p, r.Node(), r.world.nodes[dst], size)
	}
	type payload struct {
		from int
		vals []interface{}
	}
	out := r.join(p, "exchange", payload{from: r.id, vals: vals}, func(all map[int]interface{}) interface{} {
		// result[i] = items addressed to rank i, ordered by sender.
		result := make([][]Received, r.Size())
		for from := 0; from < r.Size(); from++ {
			pl := all[from].(payload)
			for dst, item := range pl.vals {
				if item != nil {
					result[dst] = append(result[dst], Received{From: pl.from, Val: item})
				}
			}
		}
		return result
	})
	r.latencyFactor(p)
	return out.([][]Received)[r.id]
}
