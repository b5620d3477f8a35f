package mpi_test

import (
	"testing"
	"time"

	"daosim/internal/cluster"
	"daosim/internal/fabric"
	"daosim/internal/mpi"
	"daosim/internal/sim"
)

// withWorld runs body inside the main process with a world of the given
// rank count spread round-robin over the small testbed's client nodes.
func withWorld(t *testing.T, ranks int, body func(p *sim.Proc, tb *cluster.Testbed, w *mpi.World)) {
	t.Helper()
	tb := cluster.New(cluster.Small())
	nodes := make([]*fabric.Node, ranks)
	for i := range nodes {
		nodes[i] = tb.ClientNode(i)
	}
	w := mpi.NewWorld(tb.Sim, tb.Fabric, nodes)
	tb.Run(func(p *sim.Proc) { body(p, tb, w) })
}

func TestParallelRunsAllRanks(t *testing.T) {
	withWorld(t, 4, func(p *sim.Proc, tb *cluster.Testbed, w *mpi.World) {
		seen := make([]bool, 4)
		w.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			seen[r.ID()] = true
			if r.Size() != 4 {
				t.Errorf("size = %d", r.Size())
			}
		})
		for i, s := range seen {
			if !s {
				t.Errorf("rank %d never ran", i)
			}
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	withWorld(t, 4, func(p *sim.Proc, tb *cluster.Testbed, w *mpi.World) {
		var after []time.Duration
		w.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			// Ranks arrive at staggered times; all leave at/after the last.
			cp.Sleep(time.Duration(r.ID()) * 10 * time.Millisecond)
			r.Barrier(cp)
			after = append(after, cp.Now())
		})
		for _, at := range after {
			if at < 30*time.Millisecond {
				t.Errorf("rank left barrier at %v, before last arrival", at)
			}
		}
	})
}

func TestAllreduce(t *testing.T) {
	withWorld(t, 4, func(p *sim.Proc, tb *cluster.Testbed, w *mpi.World) {
		w.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			v := float64(r.ID() + 1) // 1,2,3,4
			if got := r.AllreduceFloat(cp, v, "sum"); got != 10 {
				t.Errorf("sum = %v", got)
			}
			if got := r.AllreduceFloat(cp, v, "min"); got != 1 {
				t.Errorf("min = %v", got)
			}
			if got := r.AllreduceFloat(cp, v, "max"); got != 4 {
				t.Errorf("max = %v", got)
			}
		})
	})
}

func TestAllreduceDuration(t *testing.T) {
	withWorld(t, 2, func(p *sim.Proc, tb *cluster.Testbed, w *mpi.World) {
		w.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			d := time.Duration(r.ID()+1) * time.Second
			if got := r.AllreduceDuration(cp, d, "max"); got != 2*time.Second {
				t.Errorf("max duration = %v", got)
			}
		})
	})
}

func TestExchangeRoutesDescriptors(t *testing.T) {
	withWorld(t, 3, func(p *sim.Proc, tb *cluster.Testbed, w *mpi.World) {
		w.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			// Each rank sends "from<me>to<dst>" to every rank.
			vals := make([]interface{}, 3)
			sizes := make([]int64, 3)
			for dst := 0; dst < 3; dst++ {
				vals[dst] = [2]int{r.ID(), dst}
				sizes[dst] = 1000
			}
			got := r.Exchange(cp, vals, sizes)
			if len(got) != 3 {
				t.Errorf("rank %d received %d descriptors", r.ID(), len(got))
				return
			}
			seenFrom := map[int]bool{}
			for _, g := range got {
				pair := g.Val.([2]int)
				if pair[1] != r.ID() {
					t.Errorf("rank %d got descriptor for %d", r.ID(), pair[1])
				}
				if pair[0] != g.From {
					t.Errorf("sender tag %d disagrees with payload %d", g.From, pair[0])
				}
				seenFrom[pair[0]] = true
			}
			if len(seenFrom) != 3 {
				t.Errorf("rank %d missing senders: %v", r.ID(), seenFrom)
			}
		})
	})
}

func TestCollectiveOrderMatching(t *testing.T) {
	// Two back-to-back barriers + reductions must match by call order even
	// when ranks proceed at different speeds.
	withWorld(t, 2, func(p *sim.Proc, tb *cluster.Testbed, w *mpi.World) {
		w.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			if r.ID() == 1 {
				cp.Sleep(50 * time.Millisecond)
			}
			first := r.AllreduceFloat(cp, float64(r.ID()), "sum")
			second := r.AllreduceFloat(cp, float64(r.ID())*10, "sum")
			if first != 1 || second != 10 {
				t.Errorf("rank %d: first=%v second=%v", r.ID(), first, second)
			}
		})
	})
}
