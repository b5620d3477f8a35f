package dfuse_test

import (
	"bytes"
	"testing"
	"time"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/dfuse"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

// withMount boots a small testbed with a dfuse mount on client node 0.
func withMount(t *testing.T, body func(p *sim.Proc, tb *cluster.Testbed, m *dfuse.Mount)) {
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
		body(p, tb, m)
	})
}

func TestPosixRoundTrip(t *testing.T) {
	withMount(t, func(p *sim.Proc, tb *cluster.Testbed, m *dfuse.Mount) {
		fd, err := m.Open(p, "/posix.dat", dfuse.O_CREATE|dfuse.O_RDWR, dfs.CreateOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		payload := bytes.Repeat([]byte("posix!"), 700000) // ~4 MiB, non-aligned
		n, err := fd.Pwrite(p, 0, payload)
		if err != nil || n != len(payload) {
			t.Errorf("pwrite = %d, %v", n, err)
			return
		}
		got := make([]byte, len(payload))
		if err := fd.PreadInto(p, 0, int64(len(got)), got); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("pread mismatch (err=%v)", err)
		}
		if err := fd.Fsync(p); err != nil {
			t.Error(err)
		}
		if err := fd.Close(p); err != nil {
			t.Error(err)
		}
	})
}

func TestFuseRequestSplitting(t *testing.T) {
	withMount(t, func(p *sim.Proc, tb *cluster.Testbed, m *dfuse.Mount) {
		fd, _ := m.Open(p, "/split.dat", dfuse.O_CREATE, dfs.CreateOpts{})
		before := m.Requests
		fd.Pwrite(p, 0, make([]byte, 4<<20)) // 4 MiB = 4 FUSE requests at 1 MiB
		if got := m.Requests - before; got != 4 {
			t.Errorf("requests = %d, want 4", got)
		}
	})
}

func TestFuseSlowerThanDirectDFS(t *testing.T) {
	// The same I/O through the FUSE mount must cost more virtual time than
	// direct DFS calls — the paper's DFS-vs-DFuse gap.
	tb := cluster.New(cluster.Small())
	client := tb.NewClient(tb.ClientNode(0), 1)
	var direct, fused time.Duration
	tb.Run(func(p *sim.Proc) {
		pool, _ := client.CreatePool(p, "p0")
		ct, _ := pool.CreateContainer(p, "c0", daos.ContProps{Class: placement.S2})
		fsys, _ := dfs.Mount(p, ct)
		m := dfuse.NewMount(tb.Sim, tb.ClientNode(0), fsys, dfuse.DefaultCosts())
		// One FUSE-request-sized op: the kernel cannot add parallelism, so
		// the crossing + bounce-copy overhead is fully visible.
		payload := make([]byte, 1<<20)

		f, _ := fsys.Create(p, "/direct", dfs.CreateOpts{})
		start := p.Now()
		for i := 0; i < 8; i++ {
			f.WriteAt(p, int64(i)<<20, payload)
		}
		direct = p.Now() - start

		fd, _ := m.Open(p, "/fused", dfuse.O_CREATE, dfs.CreateOpts{})
		start = p.Now()
		for i := 0; i < 8; i++ {
			fd.Pwrite(p, int64(i)<<20, payload)
		}
		fused = p.Now() - start
	})
	if fused <= direct {
		t.Fatalf("fused %v not slower than direct %v", fused, direct)
	}
}

func TestDentryCache(t *testing.T) {
	withMount(t, func(p *sim.Proc, tb *cluster.Testbed, m *dfuse.Mount) {
		m.Mkdir(p, "/a/b")
		fd, _ := m.Open(p, "/a/b/f1", dfuse.O_CREATE, dfs.CreateOpts{})
		fd.Close(p)
		afterFirst := m.Requests
		fd2, _ := m.Open(p, "/a/b/f2", dfuse.O_CREATE, dfs.CreateOpts{})
		fd2.Close(p)
		// The second open re-resolves only the leaf: fewer lookup requests.
		secondCost := m.Requests - afterFirst
		if secondCost >= afterFirst {
			t.Errorf("dentry cache ineffective: first=%d second=%d", afterFirst, secondCost)
		}
	})
}

func TestThreadPoolContention(t *testing.T) {
	// More concurrent writers than daemon threads: completion time grows
	// beyond the solo case.
	elapsed := func(writers int) time.Duration {
		tb := cluster.New(cluster.Small())
		client := tb.NewClient(tb.ClientNode(0), 1)
		var span time.Duration
		tb.Run(func(p *sim.Proc) {
			pool, _ := client.CreatePool(p, "p0")
			ct, _ := pool.CreateContainer(p, "c0", daos.ContProps{Class: placement.SX})
			fsys, _ := dfs.Mount(p, ct)
			costs := dfuse.DefaultCosts()
			costs.Threads = 2 // tiny pool to force queueing
			m := dfuse.NewMount(tb.Sim, tb.ClientNode(0), fsys, costs)
			start := p.Now()
			wg := sim.NewWaitGroup(tb.Sim)
			for w := 0; w < writers; w++ {
				w := w
				wg.Go("writer", func(cp *sim.Proc) {
					fd, err := m.Open(cp, "/f"+string(rune('a'+w)), dfuse.O_CREATE, dfs.CreateOpts{})
					if err != nil {
						t.Error(err)
						return
					}
					fd.Pwrite(cp, 0, make([]byte, 4<<20))
				})
			}
			wg.Wait(p)
			span = p.Now() - start
		})
		return span
	}
	one := elapsed(1)
	eight := elapsed(8)
	if eight < one*2 {
		t.Fatalf("8 writers on 2 threads took %v, solo %v: no queueing visible", eight, one)
	}
}

// TestPreadWantTouchedPiecesOnly pins the want-aware pread: into a dirty
// buffer, PreadWant writes exactly the hull of the wanted bytes in each
// piece a wanted range touches, with the file's bytes, and leaves every
// other byte as it was. A piece is a FUSE request cut at DFS chunk
// boundaries, since each request passes want on to DFS: reading 4 MiB from
// 512 KiB, the requests start at 512 KiB plus whole MiBs and the chunks at
// whole MiBs, so two ranges in one chunk but in two requests keep the
// bytes between them untouched. The read makes the dense read's FUSE
// requests and takes its virtual time.
func TestPreadWantTouchedPiecesOnly(t *testing.T) {
	const mib = 1 << 20 // both the FUSE request size and the chunk size
	const off, n = mib / 2, 4 * mib
	cases := []struct {
		name  string
		want  []daos.Range // what the caller asks for, sorted
		hulls []daos.Range // what lands in the buffer
	}{
		{
			name:  "straddling",
			want:  []daos.Range{{Off: 600 << 10, Len: 100 << 10}, {Off: 3*mib - 1000, Len: 2000}},
			hulls: []daos.Range{{Off: 600 << 10, Len: 100 << 10}, {Off: 3*mib - 1000, Len: 2000}},
		},
		{
			// Piece [2.5, 3) MiB holds two ranges and takes the bytes
			// between them; the pair around 1.5 MiB is cut by a request
			// boundary into two pieces, which do not.
			name: "two ranges in one chunk",
			want: []daos.Range{{Off: 3*mib/2 - 1000, Len: 10}, {Off: 3*mib/2 + 1000, Len: 10},
				{Off: 5*mib/2 + 100, Len: 50}, {Off: 5*mib/2 + 4096, Len: 8192}},
			hulls: []daos.Range{{Off: 3*mib/2 - 1000, Len: 10}, {Off: 3*mib/2 + 1000, Len: 10},
				{Off: 5*mib/2 + 100, Len: 4096 + 8192 - 100}},
		},
	}
	data := make([]byte, off+n)
	for i := range data {
		data[i] = byte(i * 31 / 7)
	}
	read := func(want []daos.Range) (got []byte, took time.Duration, requests int64) {
		withMount(t, func(p *sim.Proc, tb *cluster.Testbed, m *dfuse.Mount) {
			fd, err := m.Open(p, "/want.dat", dfuse.O_CREATE|dfuse.O_RDWR, dfs.CreateOpts{})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := fd.Pwrite(p, 0, data); err != nil {
				t.Error(err)
				return
			}
			got = bytes.Repeat([]byte{0xee}, n)
			before, start := m.Requests, p.Now()
			if err := fd.PreadWant(p, off, n, got, want); err != nil {
				t.Error(err)
			}
			took, requests = p.Now()-start, m.Requests-before
		})
		return got, took, requests
	}
	_, dense, denseRequests := read(nil)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, took, requests := read(tc.want)
			for i, b := range got {
				abs := off + int64(i)
				in := false
				for _, h := range tc.hulls {
					in = in || (abs >= h.Off && abs < h.Off+h.Len)
				}
				expect := byte(0xee)
				if in {
					expect = data[abs]
				}
				if b != expect {
					t.Fatalf("byte at %d = %#x, want %#x (in a hull: %v)", abs, b, expect, in)
				}
			}
			if took != dense || requests != denseRequests {
				t.Fatalf("want-aware pread took %v in %d requests, dense pread %v in %d", took, requests, dense, denseRequests)
			}
		})
	}
}
