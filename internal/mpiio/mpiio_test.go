package mpiio_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/dfuse"
	"daosim/internal/fabric"
	"daosim/internal/mpi"
	"daosim/internal/mpiio"
	"daosim/internal/placement"
	"daosim/internal/sim"
	"daosim/internal/vos"
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

// withEnv boots a small testbed with `ranks` ranks over 2 client nodes,
// rank i on node i%2.
func withEnv(t *testing.T, ranks int, body func(p *sim.Proc, e *env)) {
	t.Helper()
	bootEnv(t, ranks, func(i int) int { return i }, body)
}

// bootEnv boots a small testbed with `ranks` ranks, rank i on client node
// node(i) (modulo the testbed's 2).
func bootEnv(t testing.TB, ranks int, node func(rank int) int, body func(p *sim.Proc, e *env)) {
	t.Helper()
	tb := cluster.New(cluster.Small())
	e := &env{tb: tb}
	for i := 0; i < ranks; i++ {
		e.nodes = append(e.nodes, tb.ClientNode(node(i)))
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
			got := make([]byte, blk)
			if err := f.ReadAtInto(cp, int64(peer)*blk, blk, got); err != nil || !bytes.Equal(got, pattern(peer, blk)) {
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
			got := make([]byte, blk)
			if err := f.ReadAtInto(cp, int64(peer)*blk, blk, got); err != nil || !bytes.Equal(got, pattern(peer, blk)) {
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
			got := make([]byte, blk)
			err = f.ReadAtAllInto(cp, off, blk, got)
			if err != nil || !bytes.Equal(got, pattern(r.ID(), blk)) {
				t.Errorf("rank %d: collective round trip mismatch (%v)", r.ID(), err)
			}
			// Cross-check: collective read of the neighbour's block.
			peer := (r.ID() + 1) % ranks
			err = f.ReadAtAllInto(cp, int64(peer)*blk, blk, got)
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
			got = make([]byte, 2*blk)
			err = f.ReadAtAllInto(cp, off, 2*blk, got)
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
					got := make([]byte, cell)
					if err := f.ReadAtInto(cp, off, cell, got); err != nil || !bytes.Equal(got, pattern(owner+c*100, cell)) {
						t.Errorf("cell (%d,%d) mismatch (%v)", c, owner, err)
						return
					}
				}
			}
			f.Close(cp)
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
			got := make([]byte, 8192)
			if err := f.ReadAtAllInto(cp, 0, 8192, got); err != nil || !bytes.Equal(got, pattern(0, 8192)) {
				t.Errorf("rank %d read mismatch (%v)", r.ID(), err)
			}
		})
	})
}

// TestCollectiveLengthOnly pins the two-phase rules for length-only
// writes: an all-length-only collective write succeeds, a collective read
// without a destination simulates it, and a collective read into buffers
// fails on every rank with vos.ErrNoContent (the aggregators' covering
// reads fail, and their answers carry the error to each requester).
func TestCollectiveLengthOnly(t *testing.T) {
	const ranks, blk = 4, 1 << 18
	withEnv(t, ranks, func(p *sim.Proc, e *env) {
		e.world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			f, err := mpiio.OpenDFS(cp, r, e.fs[r.ID()], "/lengthonly.dat", true, dfs.CreateOpts{}, mpiio.DefaultHints(2))
			if err != nil {
				t.Error(err)
				return
			}
			off := int64(r.ID()) * blk
			if err := f.WriteAtAllFrom(cp, off, blk, nil); err != nil {
				t.Errorf("rank %d: length-only collective write: %v", r.ID(), err)
				return
			}
			if err := f.ReadAtAllInto(cp, off, blk, nil); err != nil {
				t.Errorf("rank %d: nil-dst collective read: %v", r.ID(), err)
			}
			if err := f.ReadAtAllInto(cp, off, blk, make([]byte, blk)); !errors.Is(err, vos.ErrNoContent) {
				t.Errorf("rank %d: buffered collective read err = %v, want vos.ErrNoContent", r.ID(), err)
			}
			f.Close(cp)
		})
	})
}

// TestCollectiveRejectsMixedRun pins that an aggregator never coalesces
// content and length-only pieces into one run: the collective write fails
// on every rank.
func TestCollectiveRejectsMixedRun(t *testing.T) {
	const ranks, blk = 4, 1 << 16
	withEnv(t, ranks, func(p *sim.Proc, e *env) {
		e.world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			f, err := mpiio.OpenDFS(cp, r, e.fs[r.ID()], "/mixed.dat", true, dfs.CreateOpts{}, mpiio.DefaultHints(2))
			if err != nil {
				t.Error(err)
				return
			}
			var src []byte
			if r.ID() == 0 {
				src = pattern(0, blk)
			}
			if err := f.WriteAtAllFrom(cp, int64(r.ID())*blk, blk, src); err == nil {
				t.Errorf("rank %d: mixed collective write accepted", r.ID())
			}
		})
	})
}

// opener opens a shared file collectively over libdfs or over the DFuse
// mount.
type opener struct {
	name string
	open func(cp *sim.Proc, r *mpi.Rank, e *env, path string, hints mpiio.Hints) (*mpiio.File, error)
}

var openers = []opener{
	{"DFS", func(cp *sim.Proc, r *mpi.Rank, e *env, path string, hints mpiio.Hints) (*mpiio.File, error) {
		return mpiio.OpenDFS(cp, r, e.fs[r.ID()], path, true, dfs.CreateOpts{}, hints)
	}},
	{"POSIX", func(cp *sim.Proc, r *mpi.Rank, e *env, path string, hints mpiio.Hints) (*mpiio.File, error) {
		return mpiio.OpenPOSIX(cp, r, e.mounts[r.ID()], path, true, dfs.CreateOpts{}, hints)
	}},
}

// TestCollectiveReadSkipsUnrequestedChunks pins the covering read's
// wanted ranges: rank r writes a content chunk at 2r MiB and the next
// chunk length-only, then reads 64 KiB from the middle of its content
// chunk in one verified collective read, so each aggregator's covering
// range holds a length-only chunk that no rank requests. The read succeeds
// with the requested bytes over libdfs and over DFuse (there, the first
// FUSE request straddles a content chunk and the length-only one, so the
// wanted ranges must reach DFS), and takes the virtual time of the same
// read over a file written with content throughout.
func TestCollectiveReadSkipsUnrequestedChunks(t *testing.T) {
	const ranks, chunk, size = 4, 1 << 20, 64 << 10
	run := func(t *testing.T, o opener, lengthOnlyGap bool) (got [][]byte, took []time.Duration) {
		got, took = make([][]byte, ranks), make([]time.Duration, ranks)
		withEnv(t, ranks, func(p *sim.Proc, e *env) {
			e.world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
				f, err := o.open(cp, r, e, "/sparse.dat", mpiio.DefaultHints(2))
				if err != nil {
					t.Error(err)
					return
				}
				base := int64(r.ID()) * 2 * chunk
				gap := pattern(r.ID()+ranks, chunk)
				if lengthOnlyGap {
					gap = nil
				}
				if err := f.WriteAt(cp, base, pattern(r.ID(), chunk)); err != nil {
					t.Error(err)
					return
				}
				if err := f.WriteAtFrom(cp, base+chunk, chunk, gap); err != nil {
					t.Error(err)
					return
				}
				r.Barrier(cp)
				got[r.ID()] = make([]byte, size)
				start := cp.Now()
				if err := f.ReadAtAllInto(cp, base+chunk/2, size, got[r.ID()]); err != nil {
					t.Errorf("rank %d: collective read: %v", r.ID(), err)
				}
				took[r.ID()] = cp.Now() - start
				f.Close(cp)
			})
		})
		return got, took
	}
	for _, o := range openers {
		t.Run(o.name, func(t *testing.T) {
			got, took := run(t, o, true)
			_, dense := run(t, o, false)
			for r := range got {
				if want := pattern(r, chunk)[chunk/2 : chunk/2+size]; !bytes.Equal(got[r], want) {
					t.Errorf("rank %d: collective read returned the wrong bytes", r)
				}
				if took[r] != dense[r] {
					t.Errorf("rank %d: read took %v, %v over an all-content file", r, took[r], dense[r])
				}
			}
		})
	}
}
