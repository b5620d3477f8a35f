package daos_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/placement"
	"daosim/internal/sim"
	"daosim/internal/vos"
)

// withContainer boots a small testbed and runs body inside the main process
// with an open container.
func withContainer(t *testing.T, class placement.ClassID, body func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container)) {
	t.Helper()
	tb := cluster.New(cluster.Small())
	client := tb.NewClient(tb.ClientNode(0), 1)
	tb.Run(func(p *sim.Proc) {
		pool, err := client.CreatePool(p, "p0")
		if err != nil {
			t.Error(err)
			return
		}
		ct, err := pool.CreateContainer(p, "c0", daos.ContProps{Class: class})
		if err != nil {
			t.Error(err)
			return
		}
		body(p, tb, ct)
	})
}

func TestPoolAndContainerLifecycle(t *testing.T) {
	withContainer(t, placement.S1, func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) {
		if ct.UUID == "" {
			t.Error("container has no UUID")
		}
		// Reopen through a second client.
		c2 := tb.NewClient(tb.ClientNode(1), 2)
		pool2, err := c2.Connect(p, "p0")
		if err != nil {
			t.Error(err)
			return
		}
		ct2, err := pool2.OpenContainer(p, "c0")
		if err != nil {
			t.Error(err)
			return
		}
		if ct2.UUID != ct.UUID {
			t.Errorf("UUID mismatch: %s vs %s", ct2.UUID, ct.UUID)
		}
		if ct2.Props.Class != placement.S1 {
			t.Errorf("class = %v", ct2.Props.Class)
		}
	})
}

func TestKVRoundTrip(t *testing.T) {
	withContainer(t, placement.SX, func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) {
		kv, err := ct.OpenKV(p, ct.AllocOID(placement.SX))
		if err != nil {
			t.Error(err)
			return
		}
		for _, k := range []string{"alpha", "beta", "gamma"} {
			if err := kv.Put(p, k, []byte("value-"+k)); err != nil {
				t.Error(err)
				return
			}
		}
		v, err := kv.Get(p, "beta")
		if err != nil || string(v) != "value-beta" {
			t.Errorf("Get(beta) = %q, %v", v, err)
		}
		if _, err := kv.Get(p, "missing"); !errors.Is(err, daos.ErrKeyNotFound) {
			t.Errorf("missing key err = %v", err)
		}
		keys, err := kv.List(p)
		if err != nil || len(keys) != 3 || keys[0] != "alpha" {
			t.Errorf("List = %v, %v", keys, err)
		}
	})
}

func TestKVSnapshotRead(t *testing.T) {
	withContainer(t, placement.S1, func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) {
		kv, err := ct.OpenKV(p, ct.AllocOID(placement.S1))
		if err != nil {
			t.Error(err)
			return
		}
		kv.Put(p, "k", []byte("v1"))
		snap := vos.Epoch(p.Now().Nanoseconds())
		p.Sleep(time.Millisecond)
		kv.Put(p, "k", []byte("v2"))
		v, err := kv.GetAt(p, "k", snap)
		if err != nil || string(v) != "v1" {
			t.Errorf("snapshot read = %q, %v", v, err)
		}
		v, _ = kv.Get(p, "k")
		if string(v) != "v2" {
			t.Errorf("latest read = %q", v)
		}
	})
}

func testArrayIO(t *testing.T, class placement.ClassID) {
	withContainer(t, class, func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) {
		arr, err := ct.OpenArray(p, ct.AllocOID(class))
		if err != nil {
			t.Error(err)
			return
		}
		// Write 5 MiB spanning multiple chunks with a recognizable pattern.
		const size = 5 << 20
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 31 / 7)
		}
		if err := arr.Write(p, 0, data); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, size)
		if err := arr.ReadAtInto(p, 0, size, 0, got); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Errorf("class %v: read-back mismatch", class)
		}
		// Unaligned read across a chunk boundary.
		got = make([]byte, 200)
		if err := arr.ReadAtInto(p, (1<<20)-100, 200, 0, got); err != nil || !bytes.Equal(got, data[(1<<20)-100:(1<<20)+100]) {
			t.Errorf("class %v: unaligned read mismatch (%v)", class, err)
		}
		size2, err := arr.Size(p)
		if err != nil || size2 != size {
			t.Errorf("class %v: size = %d, %v", class, size2, err)
		}
	})
}

func TestArrayS1(t *testing.T) { testArrayIO(t, placement.S1) }
func TestArrayS2(t *testing.T) { testArrayIO(t, placement.S2) }
func TestArraySX(t *testing.T) { testArrayIO(t, placement.SX) }

func TestArrayHolesReadZero(t *testing.T) {
	withContainer(t, placement.S2, func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) {
		arr, _ := ct.OpenArray(p, ct.AllocOID(placement.S2))
		arr.Write(p, 3<<20, []byte("end"))
		got := make([]byte, 10)
		if err := arr.ReadAtInto(p, 0, 10, 0, got); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, make([]byte, 10)) {
			t.Errorf("hole read = %v", got)
		}
		size, _ := arr.Size(p)
		if size != 3<<20+3 {
			t.Errorf("size = %d", size)
		}
	})
}

// TestArrayRejectsNegativeOffset pins that a negative offset is an error at
// the array, never an extent: on an SX array a write at -4 MiB would map to
// a negative shard index and panic the simulation, and one at -4096 would
// store an extent at a negative offset inside a chunk.
func TestArrayRejectsNegativeOffset(t *testing.T) {
	withContainer(t, placement.SX, func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) {
		arr, err := ct.OpenArray(p, ct.AllocOID(placement.SX))
		if err != nil {
			t.Error(err)
			return
		}
		for _, off := range []int64{-4 << 20, -4096, -1} {
			if err := arr.WriteAtFrom(p, off, 4096, make([]byte, 4096)); err == nil {
				t.Errorf("write at %d accepted", off)
			}
			if err := arr.WriteAtFrom(p, off, 4096, nil); err == nil {
				t.Errorf("length-only write at %d accepted", off)
			}
			if err := arr.ReadAtInto(p, off, 4096, 0, make([]byte, 4096)); err == nil {
				t.Errorf("read at %d accepted", off)
			}
		}
		if size, err := arr.Size(p); err != nil || size != 0 {
			t.Errorf("size after rejected writes = %d, %v; want 0", size, err)
		}
	})
}

// TestArrayReadHoleShapes pins the hole contract across every read shape:
// whatever mix of written spans and holes the window covers — including a
// window entirely inside one unwritten chunk, the case the old single-span
// fast path handled asymmetrically — ReadAtInto fills a fresh buffer with
// exactly the written bytes and zeros elsewhere, and scrubs a dirty reused
// buffer to the same contents.
func TestArrayReadHoleShapes(t *testing.T) {
	const chunk = 1 << 20 // cluster.Small container chunk size
	cases := []struct {
		name     string
		off, n   int64
		contains []int64 // offsets (relative to off) expected to hold written data
	}{
		{name: "whole window in an unwritten chunk", off: 5 * chunk, n: 512},
		{name: "window inside the written span", off: chunk + 10, n: 100, contains: []int64{0, 99}},
		{name: "hole then data", off: chunk - 64, n: 128, contains: []int64{64, 127}},
		{name: "data then hole", off: 2*chunk - 64, n: 128, contains: []int64{0, 63}},
		{name: "multi-chunk with holes both sides", off: chunk / 2, n: 2 * chunk, contains: []int64{chunk / 2, chunk/2 + chunk - 1}},
		{name: "window straddling three chunks", off: chunk - 1, n: chunk + 2, contains: []int64{1, chunk}},
	}
	withContainer(t, placement.S2, func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) {
		arr, err := ct.OpenArray(p, ct.AllocOID(placement.S2))
		if err != nil {
			t.Error(err)
			return
		}
		if arr.ChunkSize != chunk {
			t.Errorf("chunk size = %d, test geometry assumes %d", arr.ChunkSize, chunk)
			return
		}
		// Written region: [chunk, 2*chunk) filled with 0x5a; everything else
		// is a hole.
		if err := arr.Write(p, chunk, bytes.Repeat([]byte{0x5a}, chunk)); err != nil {
			t.Error(err)
			return
		}
		inData := func(abs int64) bool { return abs >= chunk && abs < 2*chunk }
		for _, tc := range cases {
			want := make([]byte, tc.n)
			for i := range want {
				if inData(tc.off + int64(i)) {
					want[i] = 0x5a
				}
			}
			for _, rel := range tc.contains { // guard the case table itself
				if !inData(tc.off + rel) {
					t.Errorf("%s: case expects data at +%d but that is a hole", tc.name, rel)
				}
			}
			got := make([]byte, tc.n)
			if err := arr.ReadAtInto(p, tc.off, tc.n, 0, got); err != nil {
				t.Errorf("%s: ReadAtInto: %v", tc.name, err)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: ReadAtInto mismatch", tc.name)
			}
			dirty := bytes.Repeat([]byte{0xee}, int(tc.n))
			if err := arr.ReadAtInto(p, tc.off, tc.n, 0, dirty); err != nil {
				t.Errorf("%s: ReadAtInto: %v", tc.name, err)
				continue
			}
			if !bytes.Equal(dirty, want) {
				t.Errorf("%s: ReadAtInto left stale bytes in holes", tc.name)
			}
		}
		// Wrong-sized destination is rejected rather than partially filled.
		if err := arr.ReadAtInto(p, 0, 64, 0, make([]byte, 63)); err == nil {
			t.Error("short dst accepted")
		}
	})
}

func TestArrayOverwrite(t *testing.T) {
	withContainer(t, placement.S2, func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) {
		arr, _ := ct.OpenArray(p, ct.AllocOID(placement.S2))
		arr.Write(p, 0, bytes.Repeat([]byte{1}, 2<<20))
		arr.Write(p, 1<<19, bytes.Repeat([]byte{2}, 1<<20)) // straddles chunks
		got := make([]byte, 2<<20)
		if err := arr.ReadAtInto(p, 0, 2<<20, 0, got); err != nil {
			t.Error(err)
			return
		}
		for i, b := range got {
			want := byte(1)
			if i >= 1<<19 && i < (1<<19)+(1<<20) {
				want = 2
			}
			if b != want {
				t.Errorf("byte %d = %d, want %d", i, b, want)
				return
			}
		}
	})
}

func TestSXLayoutSpansAllTargets(t *testing.T) {
	withContainer(t, placement.SX, func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) {
		obj, err := ct.OpenObject(p, ct.AllocOID(placement.SX))
		if err != nil {
			t.Error(err)
			return
		}
		want := tb.Cfg.ServerNodes * tb.Cfg.EnginesPerNode * tb.Cfg.TargetsPerEngine
		if obj.Layout.NumShards() != want {
			t.Errorf("SX shards = %d, want %d", obj.Layout.NumShards(), want)
		}
	})
}

func TestReplicatedReadSurvivesEngineFailure(t *testing.T) {
	withContainer(t, placement.RP2G1, func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) {
		kv, err := ct.OpenKV(p, ct.AllocOID(placement.RP2G1))
		if err != nil {
			t.Error(err)
			return
		}
		if err := kv.Put(p, "k", []byte("replicated")); err != nil {
			t.Error(err)
			return
		}
		// Fail the engine holding the primary replica.
		primary := kv.Obj.Layout.Shards[0][0]
		engineID := primary / tb.Cfg.TargetsPerEngine
		tb.Engines[engineID].SetDown(true) // engine down but NOT excluded from map
		v, err := kv.Get(p, "k")
		if err != nil || string(v) != "replicated" {
			t.Errorf("replicated read after failure = %q, %v", v, err)
		}
	})
}

func TestWriteAfterExclusionRemaps(t *testing.T) {
	withContainer(t, placement.S1, func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) {
		oid := ct.AllocOID(placement.S1)
		arr, err := ct.OpenArray(p, oid)
		if err != nil {
			t.Error(err)
			return
		}
		// A second client's handle on the same object shares the layout.
		pool2, err := tb.NewClient(tb.ClientNode(1), 2).Connect(p, "p0")
		if err != nil {
			t.Error(err)
			return
		}
		ct2, err := pool2.OpenContainer(p, "c0")
		if err != nil {
			t.Error(err)
			return
		}
		arr2, err := ct2.OpenArray(p, oid)
		if err != nil {
			t.Error(err)
			return
		}
		if arr2.Obj.Layout != arr.Obj.Layout {
			t.Error("two clients' handles on one object hold different layouts")
		}
		if err := arr.Write(p, 0, []byte("before")); err != nil {
			t.Error(err)
			return
		}
		old := arr.Obj.Layout
		target := old.Shards[0][0]
		engineID := target / tb.Cfg.TargetsPerEngine
		tb.ExcludeEngine(engineID)
		// The stale layout is refreshed on the next op; the write lands on a
		// live target.
		if err := arr.Write(p, 0, []byte("after!")); err != nil {
			t.Error(err)
			return
		}
		newTarget := arr.Obj.Layout.Shards[0][0]
		if newTarget/tb.Cfg.TargetsPerEngine == engineID {
			t.Error("layout still points at the excluded engine")
		}
		want, err := placement.Compute(oid, tb.PoolMap())
		if err != nil || !reflect.DeepEqual(arr.Obj.Layout, want) {
			t.Errorf("refreshed layout = %+v, recomputed = %+v, %v", arr.Obj.Layout, want, err)
		}
		if old.MapVersion == tb.PoolMap().Version || old.Shards[0][0] != target {
			t.Error("the refresh changed the shared pre-kill layout instead of replacing it")
		}
		// The second handle, opened before the kill, reads through the same
		// recomputed layout.
		got := make([]byte, 6)
		if err := arr2.ReadAtInto(p, 0, 6, 0, got); err != nil || string(got) != "after!" {
			t.Errorf("read after remap = %q, %v", got, err)
		}
		if arr2.Obj.Layout != arr.Obj.Layout {
			t.Error("after the refresh, two clients' handles hold different layouts")
		}
	})
}

func TestEventQueueAsync(t *testing.T) {
	tb := cluster.New(cluster.Small())
	client := tb.NewClient(tb.ClientNode(0), 1)
	tb.Run(func(p *sim.Proc) {
		pool, _ := client.CreatePool(p, "p0")
		ct, _ := pool.CreateContainer(p, "c0", daos.ContProps{Class: placement.S2})
		arr, err := ct.OpenArray(p, ct.AllocOID(placement.S2))
		if err != nil {
			t.Error(err)
			return
		}
		// Launch 8 concurrent 1 MiB writes; async must beat serial.
		start := p.Now()
		eq := client.NewEventQueue(8)
		for i := 0; i < 8; i++ {
			off := int64(i) << 20
			eq.Submit(p, func(cp *sim.Proc) error {
				return arr.Write(cp, off, bytes.Repeat([]byte{byte(i)}, 1<<20))
			})
		}
		if err := eq.Wait(p); err != nil {
			t.Error(err)
			return
		}
		asyncTime := p.Now() - start

		start = p.Now()
		for i := 0; i < 8; i++ {
			arr.Write(p, int64(i)<<20, bytes.Repeat([]byte{byte(i)}, 1<<20))
		}
		serialTime := p.Now() - start
		if asyncTime >= serialTime {
			t.Errorf("async %v not faster than serial %v", asyncTime, serialTime)
		}
	})
}

func TestOIDAllocationUnique(t *testing.T) {
	tb := cluster.New(cluster.Small())
	c1 := tb.NewClient(tb.ClientNode(0), 1)
	c2 := tb.NewClient(tb.ClientNode(1), 2)
	tb.Run(func(p *sim.Proc) {
		pool, _ := c1.CreatePool(p, "p0")
		ct1, _ := pool.CreateContainer(p, "c0", daos.ContProps{})
		pool2, _ := c2.Connect(p, "p0")
		ct2, _ := pool2.OpenContainer(p, "c0")
		seen := map[vos.ObjectID]bool{}
		for i := 0; i < 100; i++ {
			for _, ct := range []*daos.Container{ct1, ct2} {
				oid := ct.AllocOID(placement.S1)
				if seen[oid] {
					t.Fatalf("duplicate OID %v", oid)
				}
				seen[oid] = true
			}
		}
	})
}

// TestArrayReadAtWantTouchedSpansOnly pins the want-aware read: into a
// dirty buffer, ReadAtWant writes exactly the hull of the wanted bytes in
// each chunk span a wanted range touches, with the array's bytes (zeros in
// a chunk never written), leaves every other byte as it was, and takes the
// virtual time of the dense read of the same window.
func TestArrayReadAtWantTouchedSpansOnly(t *testing.T) {
	const chunk = 1 << 20 // cluster.Small container chunk size
	const off, n = chunk / 2, 4 * chunk
	cases := []struct {
		name    string
		written int64        // the array's bytes: [0, written)
		want    []daos.Range // what the caller asks for, sorted
		hulls   []daos.Range // what lands in the buffer
	}{
		{
			// The second range straddles chunks 2 and 3: each span takes
			// its part.
			name: "straddling", written: off + n,
			want:  []daos.Range{{Off: 600 << 10, Len: 100 << 10}, {Off: 3*chunk - 1000, Len: 2000}},
			hulls: []daos.Range{{Off: 600 << 10, Len: 100 << 10}, {Off: 3*chunk - 1000, Len: 2000}},
		},
		{
			// Two disjoint ranges in chunk 1 take the bytes between them.
			name: "two ranges in one chunk", written: off + n,
			want:  []daos.Range{{Off: chunk + 100, Len: 50}, {Off: chunk + 4096, Len: 8192}, {Off: 4*chunk + 10, Len: 5}},
			hulls: []daos.Range{{Off: chunk + 100, Len: 4096 + 8192 - 100}, {Off: 4*chunk + 10, Len: 5}},
		},
		{
			// Chunk 3 was never written: its hull reads as zeros.
			name: "hole", written: 2 * chunk,
			want:  []daos.Range{{Off: 600 << 10, Len: 100 << 10}, {Off: 3*chunk + 10, Len: 5}},
			hulls: []daos.Range{{Off: 600 << 10, Len: 100 << 10}, {Off: 3*chunk + 10, Len: 5}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := make([]byte, tc.written)
			for i := range data {
				data[i] = byte(i * 31 / 7)
			}
			read := func(want []daos.Range) (got []byte, took time.Duration) {
				withContainer(t, placement.S2, func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) {
					arr, err := ct.OpenArray(p, ct.AllocOID(placement.S2))
					if err != nil {
						t.Error(err)
						return
					}
					if arr.ChunkSize != chunk {
						t.Errorf("chunk size = %d, test geometry assumes %d", arr.ChunkSize, chunk)
						return
					}
					if err := arr.Write(p, 0, data); err != nil {
						t.Error(err)
						return
					}
					got = bytes.Repeat([]byte{0xee}, n)
					start := p.Now()
					if err := arr.ReadAtWant(p, off, n, 0, got, want); err != nil {
						t.Error(err)
					}
					took = p.Now() - start
				})
				return got, took
			}
			got, took := read(tc.want)
			_, dense := read(nil)
			for i, b := range got {
				abs := off + int64(i)
				expect := byte(0xee)
				if inRanges(tc.hulls, abs) {
					expect = 0
					if abs < tc.written {
						expect = data[abs]
					}
				}
				if b != expect {
					t.Fatalf("byte at %d = %#x, want %#x (in a hull: %v)", abs, b, expect, inRanges(tc.hulls, abs))
				}
			}
			if took != dense {
				t.Fatalf("want-aware read took %v, dense read %v", took, dense)
			}
		})
	}
}

// inRanges reports whether abs lies in one of rs.
func inRanges(rs []daos.Range, abs int64) bool {
	for _, r := range rs {
		if abs >= r.Off && abs < r.Off+r.Len {
			return true
		}
	}
	return false
}
