package dfs_test

import (
	"bytes"
	"errors"
	"testing"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/placement"
	"daosim/internal/sim"
	"daosim/internal/vos"
)

// withFS mounts a fresh filesystem on a small testbed.
func withFS(t *testing.T, body func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS)) {
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
		fs, err := dfs.Mount(p, ct)
		if err != nil {
			t.Error(err)
			return
		}
		body(p, tb, fs)
	})
}

func TestMountFormatsAndRemounts(t *testing.T) {
	tb := cluster.New(cluster.Small())
	c1 := tb.NewClient(tb.ClientNode(0), 1)
	c2 := tb.NewClient(tb.ClientNode(1), 2)
	tb.Run(func(p *sim.Proc) {
		pool, _ := c1.CreatePool(p, "p0")
		ct, _ := pool.CreateContainer(p, "c0", daos.ContProps{Class: placement.S2, ChunkSize: 1 << 20})
		fs1, err := dfs.Mount(p, ct)
		if err != nil {
			t.Error(err)
			return
		}
		if err := fs1.Mkdir(p, "/from-client1"); err != nil {
			t.Error(err)
			return
		}
		// Second client mounts the same container and sees the namespace.
		pool2, _ := c2.Connect(p, "p0")
		ct2, _ := pool2.OpenContainer(p, "c0")
		fs2, err := dfs.Mount(p, ct2)
		if err != nil {
			t.Error(err)
			return
		}
		if fs2.Chunk() != 1<<20 || fs2.Class() != placement.S2 {
			t.Errorf("superblock defaults: chunk=%d class=%v", fs2.Chunk(), fs2.Class())
		}
		info, err := fs2.Stat(p, "/from-client1")
		if err != nil || info.Type != dfs.TypeDir {
			t.Errorf("cross-client stat: %+v, %v", info, err)
		}
	})
}

func TestFileWriteRead(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		f, err := fs.Create(p, "/data.bin", dfs.CreateOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		payload := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
		if err := f.WriteAt(p, 0, payload); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, len(payload))
		if err := f.ReadAtInto(p, 0, int64(len(got)), got); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("read-back mismatch (err=%v)", err)
		}
		size, err := f.Size(p)
		if err != nil || size != int64(len(payload)) {
			t.Errorf("size = %d, %v", size, err)
		}
	})
}

func TestNestedDirectories(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		if err := fs.MkdirAll(p, "/a/b/c"); err != nil {
			t.Error(err)
			return
		}
		f, err := fs.Create(p, "/a/b/c/deep.txt", dfs.CreateOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		f.WriteAt(p, 0, []byte("deep"))
		got, err := fs.Open(p, "/a/b/c/deep.txt")
		if err != nil {
			t.Error(err)
			return
		}
		data := make([]byte, 4)
		got.ReadAtInto(p, 0, 4, data)
		if string(data) != "deep" {
			t.Errorf("data = %q", data)
		}
		// Listing intermediate directory.
		infos, err := fs.ReadDir(p, "/a/b")
		if err != nil || len(infos) != 1 || infos[0].Name != "c" {
			t.Errorf("ReadDir(/a/b) = %v, %v", infos, err)
		}
	})
}

func TestCreateExclusive(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		if _, err := fs.Create(p, "/f", dfs.CreateOpts{}); err != nil {
			t.Error(err)
			return
		}
		if _, err := fs.Create(p, "/f", dfs.CreateOpts{}); !errors.Is(err, dfs.ErrExist) {
			t.Errorf("duplicate create err = %v", err)
		}
		if _, err := fs.OpenOrCreate(p, "/f", dfs.CreateOpts{}); err != nil {
			t.Errorf("OpenOrCreate on existing: %v", err)
		}
		if _, err := fs.OpenOrCreate(p, "/g", dfs.CreateOpts{}); err != nil {
			t.Errorf("OpenOrCreate on missing: %v", err)
		}
	})
}

func TestOpenMissing(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		if _, err := fs.Open(p, "/nope"); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("err = %v", err)
		}
		if _, err := fs.Open(p, "/no/such/dir/f"); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestFileThroughNonDirFails(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		f, _ := fs.Create(p, "/plain", dfs.CreateOpts{})
		f.WriteAt(p, 0, []byte("x"))
		if _, err := fs.Open(p, "/plain/child"); !errors.Is(err, dfs.ErrNotDir) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestPerFileClassOverride(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		f, err := fs.Create(p, "/wide", dfs.CreateOpts{Class: placement.SX})
		if err != nil {
			t.Error(err)
			return
		}
		if f.Class() != placement.SX {
			t.Errorf("class = %v", f.Class())
		}
		info, err := fs.Stat(p, "/wide")
		if err != nil || info.Class != placement.SX {
			t.Errorf("stat class = %v, %v", info.Class, err)
		}
		// FS default (container prop) applies otherwise.
		g, _ := fs.Create(p, "/default", dfs.CreateOpts{})
		if g.Class() != placement.S2 {
			t.Errorf("default class = %v", g.Class())
		}
	})
}

func TestReadDirHidesSuperblock(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		fs.Create(p, "/visible", dfs.CreateOpts{})
		infos, err := fs.ReadDir(p, "/")
		if err != nil {
			t.Error(err)
			return
		}
		for _, info := range infos {
			if info.Name != "visible" {
				t.Errorf("unexpected root entry %q", info.Name)
			}
		}
	})
}

func TestStatRoot(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		info, err := fs.Stat(p, "/")
		if err != nil || info.Type != dfs.TypeDir {
			t.Errorf("root stat = %+v, %v", info, err)
		}
	})
}

func TestSparseFile(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		f, _ := fs.Create(p, "/sparse", dfs.CreateOpts{})
		f.WriteAt(p, 10<<20, []byte("tail"))
		size, _ := f.Size(p)
		if size != 10<<20+4 {
			t.Errorf("size = %d", size)
		}
		head := make([]byte, 16)
		if err := f.ReadAtInto(p, 0, 16, head); err != nil || !bytes.Equal(head, make([]byte, 16)) {
			t.Errorf("hole = %v, %v", head, err)
		}
	})
}

// TestLengthOnlyWriteFailsContentRead pins how a file written length-only
// reads: a read into a buffer fails with vos.ErrNoContent instead of
// returning zeros, a read without a destination simulates as usual, and
// content written over part of the range reads back while the rest still
// fails.
func TestLengthOnlyWriteFailsContentRead(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		f, err := fs.Create(p, "/lengthonly", dfs.CreateOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		const n = 3 << 19 // two chunks
		if err := f.WriteAtFrom(p, 0, n, nil); err != nil {
			t.Error(err)
			return
		}
		if size, err := f.Size(p); err != nil || size != n {
			t.Errorf("size = %d, %v; want %d", size, err, n)
		}
		if err := f.ReadAtInto(p, 0, n, make([]byte, n)); !errors.Is(err, vos.ErrNoContent) {
			t.Errorf("buffered read err = %v, want vos.ErrNoContent", err)
		}
		if err := f.ReadAtInto(p, 0, n, nil); err != nil {
			t.Errorf("nil-dst read: %v", err)
		}
		data := bytes.Repeat([]byte{7}, 1<<20)
		if err := f.WriteAt(p, 0, data); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 1<<20)
		if err := f.ReadAtInto(p, 0, 1<<20, got); err != nil || !bytes.Equal(got, data) {
			t.Errorf("overwritten chunk read back wrong (%v)", err)
		}
		if err := f.ReadAtInto(p, 1<<20-1, 2, make([]byte, 2)); !errors.Is(err, vos.ErrNoContent) {
			t.Errorf("read across the length-only chunk err = %v, want vos.ErrNoContent", err)
		}
	})
}
