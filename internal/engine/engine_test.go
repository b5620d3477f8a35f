package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"daosim/internal/fabric"
	"daosim/internal/media"
	"daosim/internal/sim"
	"daosim/internal/vos"
)

// rig is a one-engine test rig with a client node.
type rig struct {
	sim    *sim.Sim
	fab    *fabric.Fabric
	eng    *Engine
	client *fabric.Node
}

func newRig() *rig {
	s := sim.New(5)
	f := fabric.New(s, fabric.DefaultConfig())
	server := f.AddNode("server0")
	client := f.AddNode("client0")
	eng := New(s, server, Config{
		ID:      0,
		Targets: 8,
		Media:   media.DCPMMInterleaved("e0/scm", 6),
		Costs:   DefaultCosts(),
	})
	return &rig{sim: s, fab: f, eng: eng, client: client}
}

// call runs one RPC inside a fresh client process and returns its response.
func (r *rig) call(t *testing.T, body interface{}) fabric.Response {
	t.Helper()
	var resp fabric.Response
	r.sim.Spawn("client", func(p *sim.Proc) {
		resp = r.fab.Call(p, r.client, r.eng.Node(), ServiceName(0), fabric.Request{
			Body: body,
			Size: RequestSize(body),
		})
	})
	r.sim.Run()
	return resp
}

var rigOID = vos.ObjectID{Hi: 1, Lo: 2}

func TestUpdateFetchRoundTrip(t *testing.T) {
	r := newRig()
	data := bytes.Repeat([]byte("d"), 4096)
	resp := r.call(t, &UpdateReq{
		Cont: "c0", OID: rigOID, Target: 3,
		Writes: []WriteExt{{Dkey: ChunkDkey(0), Akey: []byte("data"), Offset: 0, Data: data}},
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if !resp.Body.(*UpdateResp).FirstTouch {
		t.Fatal("first write did not report first touch")
	}
	got := make([]byte, 4096)
	resp = r.call(t, &FetchReq{
		Cont: "c0", OID: rigOID, Target: 3,
		Reads: []ReadExt{{Dkey: ChunkDkey(0), Akey: []byte("data"), Offset: 0, Length: 4096, Dst: got}},
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetched data mismatch")
	}
	if d := resp.Body.(*FetchResp).Data[0]; len(d) != len(got) || &d[0] != &got[0] {
		t.Fatal("response does not alias the destination")
	}
}

// TestNilDstFetchChargesLikeDst pins the length-only array read: with a nil
// Dst the engine charges the virtual time, response size and client bytes
// of a read into a buffer, and answers a present extent with nil. It never
// asks for content, so it succeeds over an extent written length-only.
func TestNilDstFetchChargesLikeDst(t *testing.T) {
	fetch := func(content bool, dst []byte) (fabric.Response, time.Duration, int64) {
		r := newRig()
		w := WriteExt{Dkey: ChunkDkey(0), Akey: []byte("data"), Len: 8192}
		if content {
			w.Data = bytes.Repeat([]byte("d"), 8192)
		}
		if resp := r.call(t, &UpdateReq{Cont: "c0", OID: rigOID, Target: 3, Writes: []WriteExt{w}}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
		start, before := r.sim.Now(), r.eng.ClientBytes()
		resp := r.call(t, &FetchReq{
			Cont: "c0", OID: rigOID, Target: 3,
			Reads: []ReadExt{
				{Dkey: ChunkDkey(0), Akey: []byte("data"), Offset: 1024, Length: 4096, Dst: dst},
				{Dkey: ChunkDkey(1), Akey: []byte("data"), Length: 4096}, // absent
			},
		})
		return resp, r.sim.Now() - start, r.eng.ClientBytes() - before
	}
	buffered, bufTime, bufBytes := fetch(true, make([]byte, 4096))
	if buffered.Err != nil {
		t.Fatal(buffered.Err)
	}
	for _, content := range []bool{true, false} {
		resp, took, moved := fetch(content, nil)
		if resp.Err != nil {
			t.Fatalf("content=%v: nil-Dst read: %v", content, resp.Err)
		}
		if took != bufTime || resp.Size != buffered.Size || moved != bufBytes {
			t.Errorf("content=%v: nil Dst took %v, size %d, moved %d; with Dst %v, %d, %d",
				content, took, resp.Size, moved, bufTime, buffered.Size, bufBytes)
		}
		if data := resp.Body.(*FetchResp).Data; data[0] != nil || data[1] != nil {
			t.Errorf("content=%v: nil-Dst read answered %v", content, data)
		}
	}
	if resp, _, _ := fetch(false, make([]byte, 4096)); !errors.Is(resp.Err, vos.ErrNoContent) {
		t.Errorf("read of a length-only extent into a buffer: err = %v, want vos.ErrNoContent", resp.Err)
	}
}

// TestPartialDstChargesFullRead pins ReadExt.At: a Dst that takes the
// bytes [At, At+len(Dst)) of an array read receives exactly those, and the
// read charges the virtual time, device bytes and response size of the
// full-length read. It fails with vos.ErrNoContent only when a byte of a
// length-only extent lies in that range, and a Dst outside the read fails.
func TestPartialDstChargesFullRead(t *testing.T) {
	const n = 8192
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	type charge struct {
		took         time.Duration
		device, size int64
	}
	// fetch writes data over [0, n) of chunk 0, then, with lengthOnly, a
	// length-only extent over [6000, 7000) on top, and reads all n bytes
	// with a Dst of m bytes at at.
	fetch := func(lengthOnly bool, at int64, m int) ([]byte, fabric.Response, charge) {
		r := newRig()
		writes := []WriteExt{{Dkey: ChunkDkey(0), Akey: []byte("data"), Data: data}}
		if lengthOnly {
			writes = append(writes, WriteExt{Dkey: ChunkDkey(0), Akey: []byte("data"), Offset: 6000, Len: 1000})
		}
		for _, w := range writes {
			if resp := r.call(t, &UpdateReq{Cont: "c0", OID: rigOID, Target: 3, Writes: []WriteExt{w}}); resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}
		dst := bytes.Repeat([]byte{0xee}, m)
		start, before := r.sim.Now(), r.eng.Device().ReadBytes
		resp := r.call(t, &FetchReq{
			Cont: "c0", OID: rigOID, Target: 3,
			Reads: []ReadExt{{Dkey: ChunkDkey(0), Akey: []byte("data"), Length: n, At: at, Dst: dst}},
		})
		return dst, resp, charge{r.sim.Now() - start, r.eng.Device().ReadBytes - before, resp.Size}
	}
	got, resp, full := fetch(false, 0, n)
	if resp.Err != nil || !bytes.Equal(got, data) {
		t.Fatalf("full-length read: err %v, bytes match %v", resp.Err, bytes.Equal(got, data))
	}
	for _, tc := range []struct {
		lengthOnly bool
		at         int64
		m          int
		noContent  bool
	}{
		{false, 0, 4096, false},
		{false, 1024, 2048, false},
		{false, n - 1, 1, false},
		{true, 0, 6000, false},
		{true, 7000, n - 7000, false},
		{true, 5999, 2, true},
		{true, 6999, 1, true},
		{true, 0, n, true},
	} {
		got, resp, c := fetch(tc.lengthOnly, tc.at, tc.m)
		if tc.noContent {
			if !errors.Is(resp.Err, vos.ErrNoContent) {
				t.Errorf("%+v: err = %v, want vos.ErrNoContent", tc, resp.Err)
			}
			continue
		}
		if resp.Err != nil {
			t.Errorf("%+v: %v", tc, resp.Err)
			continue
		}
		if !bytes.Equal(got, data[tc.at:tc.at+int64(tc.m)]) {
			t.Errorf("%+v: Dst holds the wrong bytes", tc)
		}
		if d := resp.Body.(*FetchResp).Data[0]; len(d) != tc.m || &d[0] != &got[0] {
			t.Errorf("%+v: response does not alias the destination", tc)
		}
		if c != full {
			t.Errorf("%+v: charged %+v, full-length read %+v", tc, c, full)
		}
	}
	for _, at := range []int64{-1, n - 100, math.MaxInt64 - 100} {
		if _, resp, _ := fetch(false, at, 200); resp.Err == nil || errors.Is(resp.Err, vos.ErrNoContent) {
			t.Errorf("200-byte Dst at %d of a %d-byte read: err = %v, want a range error", at, n, resp.Err)
		}
	}
}

func TestSingleValueOps(t *testing.T) {
	r := newRig()
	resp := r.call(t, &UpdateReq{
		Cont: "c0", OID: rigOID, Target: 0,
		Writes: []WriteExt{{Dkey: []byte("key1"), Akey: []byte("v"), Data: []byte("value"), Single: true}},
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	resp = r.call(t, &FetchReq{
		Cont: "c0", OID: rigOID, Target: 0,
		Reads: []ReadExt{
			{Dkey: []byte("key1"), Akey: []byte("v"), Single: true},
			{Dkey: []byte("missing"), Akey: []byte("v"), Single: true},
		},
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	fr := resp.Body.(*FetchResp)
	if string(fr.Data[0]) != "value" {
		t.Fatalf("data[0] = %q", fr.Data[0])
	}
	if fr.Data[1] != nil {
		t.Fatal("missing key returned data")
	}
}

func TestWrongTargetRejected(t *testing.T) {
	r := newRig()
	resp := r.call(t, &UpdateReq{
		Cont: "c0", OID: rigOID, Target: 99, // engine 0 owns 0..7
		Writes: []WriteExt{{Dkey: []byte("d"), Akey: []byte("a"), Data: []byte("x")}},
	})
	if resp.Err == nil {
		t.Fatal("non-local target accepted")
	}
}

func TestEngineDown(t *testing.T) {
	r := newRig()
	r.eng.SetDown(true)
	resp := r.call(t, &ListReq{Cont: "c0", OID: rigOID, Target: 0})
	if !errors.Is(resp.Err, ErrEngineDown) {
		t.Fatalf("err = %v, want ErrEngineDown", resp.Err)
	}
	r.eng.SetDown(false)
	resp = r.call(t, &ListReq{Cont: "c0", OID: rigOID, Target: 0})
	if resp.Err != nil {
		t.Fatalf("recovered engine rejected RPC: %v", resp.Err)
	}
}

// TestNoTierWithoutBulkDevice pins that every update byte is allocated and
// written on the engine's SCM device: the engine has no second tier.
func TestNoTierWithoutBulkDevice(t *testing.T) {
	r := newRig()
	r.call(t, &UpdateReq{
		Cont: "c0", OID: rigOID, Target: 0,
		Writes: []WriteExt{{Dkey: ChunkDkey(0), Akey: []byte("data"), Data: make([]byte, 1<<20)}},
	})
	if got := r.eng.Device().Used(); got != 1<<20 {
		t.Fatalf("SCM used = %d; everything must stay on SCM without a tier", got)
	}
}

func TestList(t *testing.T) {
	r := newRig()
	for i := int64(0); i < 3; i++ {
		r.call(t, &UpdateReq{
			Cont: "c0", OID: rigOID, Target: 0,
			Writes: []WriteExt{{Dkey: ChunkDkey(i), Akey: []byte("data"), Data: []byte("x")}},
		})
	}
	resp := r.call(t, &ListReq{Cont: "c0", OID: rigOID, Target: 0})
	if n := len(resp.Body.(*ListResp).Dkeys); n != 3 {
		t.Fatalf("dkeys = %d, want 3", n)
	}
}

func TestSizeQuery(t *testing.T) {
	r := newRig()
	const chunk = int64(1 << 20)
	// Write chunk 0 fully and 512 KiB of chunk 2 (chunks 0 and 2 on this
	// shard; chunk 1 may live elsewhere in a striped layout).
	r.call(t, &UpdateReq{
		Cont: "c0", OID: rigOID, Target: 0,
		Writes: []WriteExt{
			{Dkey: ChunkDkey(0), Akey: []byte("data"), Offset: 0, Data: make([]byte, chunk)},
			{Dkey: ChunkDkey(2), Akey: []byte("data"), Offset: 0, Data: make([]byte, 512<<10)},
		},
	})
	resp := r.call(t, &SizeReq{Cont: "c0", OID: rigOID, Target: 0, Akey: []byte("data"), ChunkSize: chunk})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	want := 2*chunk + (512 << 10)
	if got := resp.Body.(*SizeResp).Bytes; got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
}

func TestFirstTouchChargedOnce(t *testing.T) {
	r := newRig()
	w := []WriteExt{{Dkey: ChunkDkey(0), Akey: []byte("data"), Data: make([]byte, 1024)}}
	resp := r.call(t, &UpdateReq{Cont: "c0", OID: rigOID, Target: 0, Writes: w})
	if !resp.Body.(*UpdateResp).FirstTouch {
		t.Fatal("no first touch on create")
	}
	w2 := []WriteExt{{Dkey: ChunkDkey(1), Akey: []byte("data"), Data: make([]byte, 1024)}}
	resp = r.call(t, &UpdateReq{Cont: "c0", OID: rigOID, Target: 0, Writes: w2})
	if resp.Body.(*UpdateResp).FirstTouch {
		t.Fatal("second write reported first touch")
	}
}

func TestXstreamSerializesTarget(t *testing.T) {
	// Two concurrent CPU-heavy updates (many tiny extents, negligible media
	// time) to the SAME target must serialize on its single xstream; to
	// DIFFERENT targets they overlap. Compare total times.
	elapsed := func(sameTarget bool) time.Duration {
		s := sim.New(5)
		f := fabric.New(s, fabric.DefaultConfig())
		server := f.AddNode("server0")
		eng := New(s, server, Config{
			ID: 0, Targets: 8,
			Media: media.DCPMMInterleaved("scm", 6),
			Costs: DefaultCosts(),
		})
		writes := make([]WriteExt, 512)
		for w := range writes {
			writes[w] = WriteExt{Dkey: ChunkDkey(int64(w)), Akey: []byte("data"), Data: []byte{1}}
		}
		var end time.Duration
		for i := 0; i < 2; i++ {
			tgt := 0
			if !sameTarget {
				tgt = i
			}
			client := f.AddNode("client")
			s.Spawn("c", func(p *sim.Proc) {
				body := &UpdateReq{Cont: "c0", OID: rigOID, Target: tgt, Writes: writes}
				resp := f.Call(p, client, eng.Node(), ServiceName(0), fabric.Request{Body: body, Size: RequestSize(body)})
				if resp.Err != nil {
					panic(resp.Err)
				}
				if p.Now() > end {
					end = p.Now()
				}
			})
		}
		s.Run()
		return end
	}
	same := elapsed(true)
	diff := elapsed(false)
	if same <= diff*15/10 {
		t.Fatalf("same-target %v vs different-target %v: xstream contention invisible", same, diff)
	}
}

func TestChunkDkeyRoundTrip(t *testing.T) {
	for _, idx := range []int64{0, 1, 255, 1 << 40} {
		got, ok := DecodeChunkDkey(ChunkDkey(idx))
		if !ok || got != idx {
			t.Fatalf("round trip %d -> %d (%v)", idx, got, ok)
		}
	}
	if _, ok := DecodeChunkDkey([]byte("not-a-chunk")); ok {
		t.Fatal("garbage dkey decoded")
	}
}

// FuzzChunkDkeyMatchesFmt pins ChunkDkey to the fmt form it replaces on
// the hot path for every non-negative index, and DecodeChunkDkey to its
// inverse: a dkey decodes exactly when it is that canonical form, and then
// to fmt.Sscanf's answer.
func FuzzChunkDkeyMatchesFmt(f *testing.F) {
	for _, idx := range []int64{0, 1, 255, 1 << 40, math.MaxInt64, -1, math.MinInt64} {
		f.Add(idx, string(ChunkDkey(idx)))
	}
	for _, dk := range []string{"", "chunk.", "chunk.8000000000000000", "chunk.000000000000000A",
		"chunk.00000000000000001", "chunk.+000000000000001", "chunk.0x00000000000001", "chunk.0000000000000001 ",
		"chunk.-000000000000004", "not-a-chunk"} {
		f.Add(int64(0), dk)
	}
	f.Fuzz(func(t *testing.T, idx int64, dk string) {
		if idx >= 0 {
			if got, want := string(ChunkDkey(idx)), fmt.Sprintf("chunk.%016x", idx); got != want {
				t.Fatalf("ChunkDkey(%d) = %q, want %q", idx, got, want)
			}
		}
		var want int64
		n, err := fmt.Sscanf(dk, "chunk.%016x", &want)
		wantOK := n == 1 && err == nil && want >= 0 && dk == fmt.Sprintf("chunk.%016x", want)
		if !wantOK {
			want = 0
		}
		if got, ok := DecodeChunkDkey([]byte(dk)); got != want || ok != wantOK {
			t.Fatalf("DecodeChunkDkey(%q) = %d, %v; want %d, %v", dk, got, ok, want, wantOK)
		}
	})
}

// TestDecodeNonChunkDkeyAllocFree pins the prefix check: a DFS entry or
// superblock dkey is rejected without building a string for fmt.Sscanf.
func TestDecodeNonChunkDkeyAllocFree(t *testing.T) {
	for _, dk := range [][]byte{[]byte("superblock"), []byte("file.00000001"), []byte("chunk"), nil} {
		var ok bool
		if allocs := testing.AllocsPerRun(100, func() { _, ok = DecodeChunkDkey(dk) }); allocs != 0 || ok {
			t.Errorf("DecodeChunkDkey(%q): ok %v, %v allocs per call; want false, 0", dk, ok, allocs)
		}
	}
	dk := ChunkDkey(1 << 40)
	if allocs := testing.AllocsPerRun(100, func() { DecodeChunkDkey(dk) }); allocs != 0 {
		t.Errorf("DecodeChunkDkey(%q): %v allocs per call, want 0", dk, allocs)
	}
}

func TestCountersAndStats(t *testing.T) {
	r := newRig()
	r.call(t, &UpdateReq{
		Cont: "c0", OID: rigOID, Target: 0,
		Writes: []WriteExt{{Dkey: ChunkDkey(0), Akey: []byte("data"), Data: make([]byte, 100)}},
	})
	if r.eng.RPCs != 1 {
		t.Fatalf("RPCs = %d", r.eng.RPCs)
	}
}
