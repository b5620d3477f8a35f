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
	resp = r.call(t, &FetchReq{
		Cont: "c0", OID: rigOID, Target: 3,
		Reads: []ReadExt{{Dkey: ChunkDkey(0), Akey: []byte("data"), Offset: 0, Length: 4096}},
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	got := resp.Body.(*FetchResp).Data[0]
	if !bytes.Equal(got, data) {
		t.Fatal("fetched data mismatch")
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

func TestPunchAndList(t *testing.T) {
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
	r.call(t, &PunchReq{Cont: "c0", OID: rigOID, Target: 0, Dkey: ChunkDkey(1)})
	resp = r.call(t, &ListReq{Cont: "c0", OID: rigOID, Target: 0})
	if n := len(resp.Body.(*ListResp).Dkeys); n != 2 {
		t.Fatalf("dkeys after dkey punch = %d, want 2", n)
	}
	r.call(t, &PunchReq{Cont: "c0", OID: rigOID, Target: 0})
	resp = r.call(t, &FetchReq{
		Cont: "c0", OID: rigOID, Target: 0,
		Reads: []ReadExt{{Dkey: ChunkDkey(0), Akey: []byte("data"), Offset: 0, Length: 1}},
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Body.(*FetchResp).Data[0] != nil {
		t.Fatal("punched object still readable")
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

func TestAggregateReclaimsMedia(t *testing.T) {
	r := newRig()
	for e := 0; e < 4; e++ {
		r.call(t, &UpdateReq{
			Cont: "c0", OID: rigOID, Target: 0,
			Writes: []WriteExt{{Dkey: ChunkDkey(0), Akey: []byte("data"), Offset: 0, Data: make([]byte, 1<<20)}},
		})
	}
	used := r.eng.Device().Used()
	if used != 4<<20 {
		t.Fatalf("used = %d", used)
	}
	resp := r.call(t, &AggregateReq{Target: 0, Epoch: vos.EpochMax})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if got := resp.Body.(*AggregateResp).Reclaimed; got != 3<<20 {
		t.Fatalf("reclaimed = %d, want 3 MiB", got)
	}
	if r.eng.Device().Used() != 1<<20 {
		t.Fatalf("device used = %d after aggregation", r.eng.Device().Used())
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

// FuzzChunkDkeyMatchesFmt pins ChunkDkey and DecodeChunkDkey to the fmt
// forms they replace on the hot path, for every index and every dkey.
func FuzzChunkDkeyMatchesFmt(f *testing.F) {
	for _, idx := range []int64{0, 1, 255, 1 << 40, math.MaxInt64, -1, math.MinInt64} {
		f.Add(idx, string(ChunkDkey(idx)))
	}
	for _, dk := range []string{"", "chunk.", "chunk.8000000000000000", "chunk.000000000000000A",
		"chunk.00000000000000001", "chunk.+000000000000001", "chunk.0x00000000000001", "chunk.0000000000000001 ", "not-a-chunk"} {
		f.Add(int64(0), dk)
	}
	f.Fuzz(func(t *testing.T, idx int64, dk string) {
		if got, want := string(ChunkDkey(idx)), fmt.Sprintf("chunk.%016x", idx); got != want {
			t.Fatalf("ChunkDkey(%d) = %q, want %q", idx, got, want)
		}
		var want int64
		n, err := fmt.Sscanf(dk, "chunk.%016x", &want)
		wantOK := n == 1 && err == nil
		if !wantOK {
			want = 0
		}
		if got, ok := DecodeChunkDkey([]byte(dk)); got != want || ok != wantOK {
			t.Fatalf("DecodeChunkDkey(%q) = %d, %v; fmt gives %d, %v", dk, got, ok, want, wantOK)
		}
	})
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
	if r.eng.NumContainers() != 1 {
		t.Fatalf("containers = %d", r.eng.NumContainers())
	}
	if r.eng.TargetObjects(0) != 1 {
		t.Fatalf("objects = %d", r.eng.TargetObjects(0))
	}
}
