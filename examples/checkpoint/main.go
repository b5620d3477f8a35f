// Command checkpoint demonstrates application checkpoint/restart through
// collective MPI-I/O on a shared DFS-backed file: every rank owns an
// interleaved slice of the solver state, writes it with a two-phase
// collective (node aggregators coalesce the strided pattern), then the job
// "fails", restarts, and restores its state with a collective read,
// verifying every byte.
package main

import (
	"bytes"
	"fmt"
	"log"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/fabric"
	"daosim/internal/mpi"
	"daosim/internal/mpiio"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

const (
	nodes    = 4
	ppn      = 4
	sliceKiB = 256 // per-rank state per stripe
	stripes  = 8   // interleaved stripes per rank
)

// state synthesizes rank r's solver state for stripe s.
func state(r, s int) []byte {
	out := make([]byte, sliceKiB<<10)
	for i := range out {
		out[i] = byte(r*31 + s*7 + i%251)
	}
	return out
}

func main() {
	tb := cluster.New(cluster.NEXTGenIO())
	tb.Run(func(p *sim.Proc) {
		admin := tb.NewClient(tb.ClientNode(0), 999)
		pool, err := admin.CreatePool(p, "ckpt-pool")
		if err != nil {
			log.Fatal(err)
		}
		if _, err := pool.CreateContainer(p, "ckpt", daos.ContProps{Class: placement.SX}); err != nil {
			log.Fatal(err)
		}

		var rankNodes []*fabric.Node
		for r := 0; r < nodes*ppn; r++ {
			rankNodes = append(rankNodes, tb.ClientNode(r/ppn))
		}
		world := mpi.NewWorld(tb.Sim, tb.Fabric, rankNodes)

		mountFS := func(cp *sim.Proc, r *mpi.Rank, uid uint32) *dfs.FS {
			cl := tb.NewClient(r.Node(), uid+uint32(r.ID()))
			pl, err := cl.Connect(cp, "ckpt-pool")
			if err != nil {
				log.Fatal(err)
			}
			ct, err := pl.OpenContainer(cp, "ckpt")
			if err != nil {
				log.Fatal(err)
			}
			fsys, err := dfs.Mount(cp, ct)
			if err != nil {
				log.Fatal(err)
			}
			return fsys
		}

		sliceBytes := int64(sliceKiB << 10)
		ranks := nodes * ppn
		hints := mpiio.DefaultHints(ppn)

		// --- Checkpoint: interleaved collective write.
		writeSpan := world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			fsys := mountFS(cp, r, 1000)
			f, err := mpiio.OpenDFS(cp, r, fsys, "/ckpt-0001.dat", true,
				dfs.CreateOpts{Class: placement.SX}, hints)
			if err != nil {
				log.Fatal(err)
			}
			for s := 0; s < stripes; s++ {
				off := (int64(s)*int64(ranks) + int64(r.ID())) * sliceBytes
				if err := f.WriteAtAll(cp, off, state(r.ID(), s)); err != nil {
					log.Fatal(err)
				}
			}
			if err := f.Close(cp); err != nil {
				log.Fatal(err)
			}
		})

		// --- Restart: a new job restores and verifies its slices.
		var mismatches int
		readSpan := world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			fsys := mountFS(cp, r, 2000)
			f, err := mpiio.OpenDFS(cp, r, fsys, "/ckpt-0001.dat", false, dfs.CreateOpts{}, hints)
			if err != nil {
				log.Fatal(err)
			}
			for s := 0; s < stripes; s++ {
				off := (int64(s)*int64(ranks) + int64(r.ID())) * sliceBytes
				got := make([]byte, sliceBytes)
				if err := f.ReadAtAllInto(cp, off, sliceBytes, got); err != nil {
					log.Fatal(err)
				}
				if !bytes.Equal(got, state(r.ID(), s)) {
					mismatches++
				}
			}
			f.Close(cp)
		})

		total := float64(int64(ranks*stripes) * sliceBytes)
		fmt.Printf("checkpoint/restart on %d ranks, %d x %d KiB interleaved stripes per rank\n",
			ranks, stripes, sliceKiB)
		fmt.Printf("  checkpoint (collective write): %10v  (%6.2f GiB/s)\n", writeSpan, total/writeSpan.Seconds()/(1<<30))
		fmt.Printf("  restart    (collective read):  %10v  (%6.2f GiB/s)\n", readSpan, total/readSpan.Seconds()/(1<<30))
		if mismatches != 0 {
			log.Fatalf("VERIFICATION FAILED: %d slices corrupt", mismatches)
		}
		fmt.Println("  state verified: every byte restored correctly")
	})
}
