package mpiio_test

import (
	"bytes"
	"testing"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/dfuse"
	"daosim/internal/fabric"
	"daosim/internal/mpi"
	"daosim/internal/mpiio"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

// env is a shared-file test environment: a world, per-node DFS mounts, and
// per-node dfuse mounts.
type env struct {
	tb     *cluster.Testbed
	world  *mpi.World
	fs     []*dfs.FS      // per rank (each rank's own client/mount)
	mounts []*dfuse.Mount // per node
	nodes  []*fabric.Node
}

// withEnv boots a small testbed with `ranks` ranks over 2 client nodes.
func withEnv(t *testing.T, ranks int, body func(p *sim.Proc, e *env)) {
	t.Helper()
	tb := cluster.New(cluster.Small())
	e := &env{tb: tb}
	for i := 0; i < ranks; i++ {
		e.nodes = append(e.nodes, tb.ClientNode(i))
	}
	e.world = mpi.NewWorld(tb.Sim, tb.Fabric, e.nodes)
	tb.Run(func(p *sim.Proc) {
		admin := tb.NewClient(tb.ClientNode(0), 1000)
		pool, err := admin.CreatePool(p, "p0")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := pool.CreateContainer(p, "c0", daos.ContProps{Class: placement.SX}); err != nil {
			t.Error(err)
			return
		}
		// Per-rank clients + mounts (ranks on the same node share a dfuse
		// mount in real deployments; here one mount per rank node entry is
		// built once per node).
		mountByNode := map[*fabric.Node]*dfuse.Mount{}
		for i := 0; i < ranks; i++ {
			cl := tb.NewClient(e.nodes[i], uint32(i))
			pl, err := cl.Connect(p, "p0")
			if err != nil {
				t.Error(err)
				return
			}
			ct, err := pl.OpenContainer(p, "c0")
			if err != nil {
				t.Error(err)
				return
			}
			fsys, err := dfs.Mount(p, ct)
			if err != nil {
				t.Error(err)
				return
			}
			e.fs = append(e.fs, fsys)
			if _, ok := mountByNode[e.nodes[i]]; !ok {
				mountByNode[e.nodes[i]] = dfuse.NewMount(tb.Sim, e.nodes[i], fsys, dfuse.DefaultCosts())
			}
			e.mounts = append(e.mounts, mountByNode[e.nodes[i]])
		}
		body(p, e)
	})
}

func pattern(rank, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rank*37 + i*11)
	}
	return out
}

func TestIndependentSharedFileDFS(t *testing.T) {
	const ranks, blk = 4, 1 << 20
	withEnv(t, ranks, func(p *sim.Proc, e *env) {
		e.world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			f, err := mpiio.OpenDFS(cp, r, e.fs[r.ID()], "/shared.dat", true, dfs.CreateOpts{}, mpiio.DefaultHints(2))
			if err != nil {
				t.Error(err)
				return
			}
			off := int64(r.ID()) * blk
			if err := f.WriteAt(cp, off, pattern(r.ID(), blk)); err != nil {
				t.Error(err)
				return
			}
			r.Barrier(cp)
			// Read the neighbour's block (defeats any locality).
			peer := (r.ID() + 1) % ranks
			got, err := f.ReadAt(cp, int64(peer)*blk, blk)
			if err != nil || !bytes.Equal(got, pattern(peer, blk)) {
				t.Errorf("rank %d: neighbour read mismatch (%v)", r.ID(), err)
			}
			f.Close(cp)
		})
	})
}

func TestIndependentSharedFilePOSIX(t *testing.T) {
	const ranks, blk = 4, 1 << 19
	withEnv(t, ranks, func(p *sim.Proc, e *env) {
		e.world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			f, err := mpiio.OpenPOSIX(cp, r, e.mounts[r.ID()], "/shared-posix.dat", true, dfs.CreateOpts{}, mpiio.DefaultHints(2))
			if err != nil {
				t.Error(err)
				return
			}
			off := int64(r.ID()) * blk
			if err := f.WriteAt(cp, off, pattern(r.ID(), blk)); err != nil {
				t.Error(err)
				return
			}
			r.Barrier(cp)
			peer := (r.ID() + 3) % ranks
			got, err := f.ReadAt(cp, int64(peer)*blk, blk)
			if err != nil || !bytes.Equal(got, pattern(peer, blk)) {
				t.Errorf("rank %d: read mismatch (%v)", r.ID(), err)
			}
			f.Close(cp)
		})
	})
}

func TestCollectiveWriteReadRoundTrip(t *testing.T) {
	const ranks, blk = 4, 1 << 19
	withEnv(t, ranks, func(p *sim.Proc, e *env) {
		e.world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			f, err := mpiio.OpenDFS(cp, r, e.fs[r.ID()], "/coll.dat", true, dfs.CreateOpts{}, mpiio.DefaultHints(2))
			if err != nil {
				t.Error(err)
				return
			}
			off := int64(r.ID()) * blk
			if err := f.WriteAtAll(cp, off, pattern(r.ID(), blk)); err != nil {
				t.Error(err)
				return
			}
			got, err := f.ReadAtAll(cp, off, blk)
			if err != nil || !bytes.Equal(got, pattern(r.ID(), blk)) {
				t.Errorf("rank %d: collective round trip mismatch (%v)", r.ID(), err)
			}
			// Cross-check: collective read of the neighbour's block.
			peer := (r.ID() + 1) % ranks
			got, err = f.ReadAtAll(cp, int64(peer)*blk, blk)
			if err != nil || !bytes.Equal(got, pattern(peer, blk)) {
				t.Errorf("rank %d: collective neighbour read mismatch (%v)", r.ID(), err)
			}
			// Two blocks each, past the end of the file for the last rank:
			// the covering buffers the aggregators reused for the reads
			// above must grow.
			want := append(pattern(r.ID(), blk), make([]byte, blk)...)
			if peer > r.ID() {
				want = append(pattern(r.ID(), blk), pattern(peer, blk)...)
			}
			got, err = f.ReadAtAll(cp, off, 2*blk)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("rank %d: collective two-block read mismatch (%v)", r.ID(), err)
			}
			f.Close(cp)
		})
	})
}

func TestCollectiveInterleavedPattern(t *testing.T) {
	// Strided/interleaved access is where two-phase shines: each rank owns
	// every ranks-th 64 KiB cell. Verify the reassembled file.
	const ranks = 4
	const cell = 64 << 10
	const cellsPerRank = 8
	withEnv(t, ranks, func(p *sim.Proc, e *env) {
		e.world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			f, err := mpiio.OpenDFS(cp, r, e.fs[r.ID()], "/strided.dat", true, dfs.CreateOpts{}, mpiio.DefaultHints(2))
			if err != nil {
				t.Error(err)
				return
			}
			// Write cells one collective call at a time (all ranks together).
			for c := 0; c < cellsPerRank; c++ {
				off := int64(c*ranks+r.ID()) * cell
				if err := f.WriteAtAll(cp, off, pattern(r.ID()+c*100, cell)); err != nil {
					t.Error(err)
					return
				}
			}
			r.Barrier(cp)
			// Independent verification of every cell.
			for c := 0; c < cellsPerRank; c++ {
				for owner := 0; owner < ranks; owner++ {
					off := int64(c*ranks+owner) * cell
					got, err := f.ReadAt(cp, off, cell)
					if err != nil || !bytes.Equal(got, pattern(owner+c*100, cell)) {
						t.Errorf("cell (%d,%d) mismatch (%v)", c, owner, err)
						return
					}
				}
			}
			f.Close(cp)
		})
	})
}

func TestSetView(t *testing.T) {
	withEnv(t, 2, func(p *sim.Proc, e *env) {
		e.world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			f, err := mpiio.OpenDFS(cp, r, e.fs[r.ID()], "/view.dat", true, dfs.CreateOpts{}, mpiio.DefaultHints(1))
			if err != nil {
				t.Error(err)
				return
			}
			f.SetView(4096)
			if r.ID() == 0 {
				f.WriteAt(cp, 0, []byte("header-relative"))
			}
			r.Barrier(cp)
			got, err := f.ReadAt(cp, 0, 15)
			if err != nil || string(got) != "header-relative" {
				t.Errorf("view read = %q, %v", got, err)
			}
			// The absolute file offset is displaced.
			f.SetView(0)
			got, _ = f.ReadAt(cp, 4096, 15)
			if string(got) != "header-relative" {
				t.Errorf("absolute read = %q", got)
			}
		})
	})
}

func TestCollectiveZeroLengthParticipant(t *testing.T) {
	withEnv(t, 3, func(p *sim.Proc, e *env) {
		e.world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			f, err := mpiio.OpenDFS(cp, r, e.fs[r.ID()], "/uneven.dat", true, dfs.CreateOpts{}, mpiio.DefaultHints(1))
			if err != nil {
				t.Error(err)
				return
			}
			// Rank 2 contributes nothing but must still participate.
			var data []byte
			if r.ID() < 2 {
				data = pattern(r.ID(), 8192)
			}
			if err := f.WriteAtAll(cp, int64(r.ID())*8192, data); err != nil {
				t.Error(err)
				return
			}
			got, err := f.ReadAtAll(cp, 0, 8192)
			if err != nil || !bytes.Equal(got, pattern(0, 8192)) {
				t.Errorf("rank %d read mismatch (%v)", r.ID(), err)
			}
		})
	})
}

func TestFileSizeAfterSharedWrites(t *testing.T) {
	const ranks, blk = 4, 1 << 18
	withEnv(t, ranks, func(p *sim.Proc, e *env) {
		e.world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			f, _ := mpiio.OpenDFS(cp, r, e.fs[r.ID()], "/sized.dat", true, dfs.CreateOpts{}, mpiio.DefaultHints(2))
			f.WriteAt(cp, int64(r.ID())*blk, pattern(r.ID(), blk))
			r.Barrier(cp)
			size, err := f.Size(cp)
			if err != nil || size != ranks*blk {
				t.Errorf("size = %d, %v (want %d)", size, err, ranks*blk)
			}
		})
	})
}
