package hdf5_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/dfuse"
	"daosim/internal/hdf5"
	"daosim/internal/placement"
	"daosim/internal/sim"
	"daosim/internal/vos"
)

// withVFD provides a POSIX VFD over a dfuse mount on a small testbed.
func withVFD(t *testing.T, body func(p *sim.Proc, newVFD func(p *sim.Proc, path string, create bool) hdf5.VFD)) {
	t.Helper()
	tb := cluster.New(cluster.Small())
	client := tb.NewClient(tb.ClientNode(0), 1)
	tb.Run(func(p *sim.Proc) {
		pool, err := client.CreatePool(p, "p0")
		if err != nil {
			t.Error(err)
			return
		}
		ct, err := pool.CreateContainer(p, "c0", daos.ContProps{Class: placement.S2})
		if err != nil {
			t.Error(err)
			return
		}
		fsys, err := dfs.Mount(p, ct)
		if err != nil {
			t.Error(err)
			return
		}
		m := dfuse.NewMount(tb.Sim, tb.ClientNode(0), fsys, dfuse.DefaultCosts())
		newVFD := func(p *sim.Proc, path string, create bool) hdf5.VFD {
			flags := dfuse.O_RDWR
			if create {
				flags |= dfuse.O_CREATE
			}
			fd, err := m.Open(p, path, flags, dfs.CreateOpts{})
			if err != nil {
				t.Fatal(err)
			}
			return hdf5.NewPosixVFD(fd)
		}
		body(p, newVFD)
	})
}

func fill(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed + byte(i%97)
	}
	return out
}

func TestContiguousRoundTrip(t *testing.T) {
	withVFD(t, func(p *sim.Proc, newVFD func(*sim.Proc, string, bool) hdf5.VFD) {
		f, err := hdf5.Create(p, newVFD(p, "/c.h5", true), hdf5.DefaultCosts())
		if err != nil {
			t.Error(err)
			return
		}
		ds, err := f.CreateDataset(p, "temperature", 4<<20, 0)
		if err != nil {
			t.Error(err)
			return
		}
		data := fill(4<<20, 3)
		if err := ds.Write(p, 0, data); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 4<<20)
		if err := ds.ReadInto(p, 0, 4<<20, got); err != nil || !bytes.Equal(got, data) {
			t.Errorf("round trip mismatch (%v)", err)
		}
		if err := f.Close(p); err != nil {
			t.Error(err)
		}
	})
}

func TestReopenReadsBack(t *testing.T) {
	withVFD(t, func(p *sim.Proc, newVFD func(*sim.Proc, string, bool) hdf5.VFD) {
		f, _ := hdf5.Create(p, newVFD(p, "/persist.h5", true), hdf5.DefaultCosts())
		ds, _ := f.CreateDataset(p, "d1", 1<<20, 0)
		data := fill(1<<20, 9)
		ds.Write(p, 0, data)
		ds2, _ := f.CreateDataset(p, "d2", 4096, 0)
		ds2.Write(p, 0, fill(4096, 42))
		f.Close(p)

		g, err := hdf5.Open(p, newVFD(p, "/persist.h5", false), hdf5.DefaultCosts())
		if err != nil {
			t.Error(err)
			return
		}
		names := g.Datasets()
		if len(names) != 2 || names[0] != "d1" || names[1] != "d2" {
			t.Errorf("datasets = %v", names)
			return
		}
		rd, err := g.OpenDataset(p, "d1")
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 1<<20)
		if err := rd.ReadInto(p, 0, 1<<20, got); err != nil || !bytes.Equal(got, data) {
			t.Errorf("reopened read mismatch (%v)", err)
		}
		rd2, _ := g.OpenDataset(p, "d2")
		got = make([]byte, 4096)
		rd2.ReadInto(p, 0, 4096, got)
		if !bytes.Equal(got, fill(4096, 42)) {
			t.Error("second dataset mismatch")
		}
	})
}

func TestUnalignedDataOffset(t *testing.T) {
	// The contiguous data offset must NOT be chunk-aligned: that
	// misalignment is a core mechanism behind HDF5's slowdown over DFuse.
	withVFD(t, func(p *sim.Proc, newVFD func(*sim.Proc, string, bool) hdf5.VFD) {
		f, _ := hdf5.Create(p, newVFD(p, "/align.h5", true), hdf5.DefaultCosts())
		ds, _ := f.CreateDataset(p, "d", 1<<20, 0)
		if ds.DataOffset()%(1<<20) == 0 {
			t.Errorf("data offset %d is 1 MiB aligned; HDF5 default layout must not be", ds.DataOffset())
		}
		if ds.DataOffset() != 512+256 {
			t.Errorf("data offset = %d, want 768 (superblock+header)", ds.DataOffset())
		}
	})
}

func TestErrors(t *testing.T) {
	withVFD(t, func(p *sim.Proc, newVFD func(*sim.Proc, string, bool) hdf5.VFD) {
		f, _ := hdf5.Create(p, newVFD(p, "/err.h5", true), hdf5.DefaultCosts())
		if _, err := f.CreateDataset(p, "d", 1024, 0); err != nil {
			t.Error(err)
		}
		if _, err := f.CreateDataset(p, "d", 1024, 0); !errors.Is(err, hdf5.ErrDatasetExists) {
			t.Errorf("dup err = %v", err)
		}
		// Only the contiguous layout exists: a chunk size is refused, and
		// the refused dataset is not created.
		if _, err := f.CreateDataset(p, "chunked", 1<<20, 256<<10); err == nil {
			t.Error("chunked dataset accepted")
		}
		if _, err := f.OpenDataset(p, "chunked"); !errors.Is(err, hdf5.ErrDatasetMissing) {
			t.Errorf("refused chunked dataset exists: err = %v", err)
		}
		if _, err := f.OpenDataset(p, "missing"); !errors.Is(err, hdf5.ErrDatasetMissing) {
			t.Errorf("missing err = %v", err)
		}
		ds, _ := f.OpenDataset(p, "d")
		if err := ds.Write(p, 1000, make([]byte, 100)); !errors.Is(err, hdf5.ErrOutOfBounds) {
			t.Errorf("oob err = %v", err)
		}
		if err := ds.ReadInto(p, 0, 2048, make([]byte, 2048)); !errors.Is(err, hdf5.ErrOutOfBounds) {
			t.Errorf("oob read err = %v", err)
		}
	})
}

func TestOpenGarbageFails(t *testing.T) {
	withVFD(t, func(p *sim.Proc, newVFD func(*sim.Proc, string, bool) hdf5.VFD) {
		vfd := newVFD(p, "/garbage", true)
		vfd.WriteAtFrom(p, 0, 1024, fill(1024, 7))
		if _, err := hdf5.Open(p, vfd, hdf5.DefaultCosts()); !errors.Is(err, hdf5.ErrNotHDF5) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestParallelSlabLayout(t *testing.T) {
	// Shared-file usage: one rank creates the dataset; peers open and write
	// disjoint slabs (what the IOR HDF5 backend does).
	withVFD(t, func(p *sim.Proc, newVFD func(*sim.Proc, string, bool) hdf5.VFD) {
		const ranks, slab = 4, 1 << 18
		f, _ := hdf5.Create(p, newVFD(p, "/shared.h5", true), hdf5.DefaultCosts())
		ds, _ := f.CreateDataset(p, "data", ranks*slab, 0)
		for r := 0; r < ranks; r++ {
			ds.Write(p, int64(r)*slab, fill(slab, byte(r)))
		}
		f.Close(p)
		g, _ := hdf5.Open(p, newVFD(p, "/shared.h5", false), hdf5.DefaultCosts())
		rd, _ := g.OpenDataset(p, "data")
		for r := 0; r < ranks; r++ {
			got := make([]byte, slab)
			if err := rd.ReadInto(p, int64(r)*slab, slab, got); err != nil || !bytes.Equal(got, fill(slab, byte(r))) {
				t.Errorf("slab %d mismatch (%v)", r, err)
			}
		}
	})
}

// TestSieveAllocatedLazily pins that the sieve buffer is allocated on first
// use: an Open followed by SetSieve(0), as the IOR shared-file backend
// does, must not allocate a DefaultSieveSize window it never uses.
func TestSieveAllocatedLazily(t *testing.T) {
	withVFD(t, func(p *sim.Proc, newVFD func(*sim.Proc, string, bool) hdf5.VFD) {
		f, _ := hdf5.Create(p, newVFD(p, "/lazy.h5", true), hdf5.DefaultCosts())
		f.CreateDataset(p, "data", 1<<20, 0)
		f.Close(p)
		vfd := newVFD(p, "/lazy.h5", false)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := hdf5.Open(p, vfd, hdf5.DefaultCosts())
		if err != nil {
			t.Error(err)
			return
		}
		g.SetSieve(0)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n >= uint64(hdf5.DefaultSieveSize) {
			t.Errorf("Open + SetSieve(0) allocated %d B, want < %d", n, hdf5.DefaultSieveSize)
		}
	})
}

// TestLengthOnlyWritesThroughSieve writes a dataset length-only through the
// data sieve. The first window also holds the superblock and the dataset
// header, and its length-only flush shadows both; Close rewrites the
// superblock and the object index keeps a header copy, so Open still
// succeeds. The data then simulates without a destination and fails a read
// into a buffer instead of returning zeros.
func TestLengthOnlyWritesThroughSieve(t *testing.T) {
	withVFD(t, func(p *sim.Proc, newVFD func(*sim.Proc, string, bool) hdf5.VFD) {
		const extent, xfer = 1 << 20, 1 << 18
		f, err := hdf5.Create(p, newVFD(p, "/lengthonly.h5", true), hdf5.DefaultCosts())
		if err != nil {
			t.Error(err)
			return
		}
		ds, err := f.CreateDataset(p, "d", extent, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if ds.DataOffset()%hdf5.DefaultSieveSize == 0 {
			t.Fatal("data is window-aligned: the writes would bypass the sieve")
		}
		for off := int64(0); off < extent; off += xfer {
			if err := ds.WriteFrom(p, off, xfer, nil); err != nil {
				t.Error(err)
				return
			}
		}
		if err := f.Close(p); err != nil {
			t.Error(err)
			return
		}
		g, err := hdf5.Open(p, newVFD(p, "/lengthonly.h5", false), hdf5.DefaultCosts())
		if err != nil {
			t.Errorf("open after length-only writes: %v", err)
			return
		}
		rd, err := g.OpenDataset(p, "d")
		if err != nil {
			t.Error(err)
			return
		}
		if err := rd.ReadInto(p, 0, extent, nil); err != nil {
			t.Errorf("nil-dst read: %v", err)
		}
		if err := rd.ReadInto(p, 0, xfer, make([]byte, xfer)); !errors.Is(err, vos.ErrNoContent) {
			t.Errorf("buffered read err = %v, want vos.ErrNoContent", err)
		}
	})
}

// TestSieveRejectsMixedWindow pins that one dirty sieve window never holds
// both content and length-only writes, in either order.
func TestSieveRejectsMixedWindow(t *testing.T) {
	withVFD(t, func(p *sim.Proc, newVFD func(*sim.Proc, string, bool) hdf5.VFD) {
		f, _ := hdf5.Create(p, newVFD(p, "/mixed.h5", true), hdf5.DefaultCosts())
		ds, _ := f.CreateDataset(p, "d", 1<<20, 0)
		if err := ds.Write(p, 0, fill(4096, 1)); err != nil {
			t.Error(err)
			return
		}
		if err := ds.WriteFrom(p, 4096, 4096, nil); err == nil {
			t.Error("length-only write into a content window accepted")
		}
		if err := ds.WriteFrom(p, 1<<19, 4096, nil); err != nil {
			t.Error(err)
			return
		}
		if err := ds.Write(p, 1<<19+4096, fill(4096, 2)); err == nil {
			t.Error("content write into a length-only window accepted")
		}
	})
}
