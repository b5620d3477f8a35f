package daos

import (
	"errors"
	"fmt"

	"daosim/internal/engine"
	"daosim/internal/fabric"
	"daosim/internal/sim"
	"daosim/internal/vos"
)

// arrayAkey is the akey under which array data lives, as in libdaos's array
// API.
var arrayAkey = []byte("array_data")

// Array is the byte-array API over an object: a flat address space striped
// over the object's shards in ChunkSize cells (one dkey per chunk, chunks
// round-robin across shards — the layout DFS files use).
type Array struct {
	Obj       *Object
	ChunkSize int64
}

// OpenArray opens oid as a byte array with the container's chunk size.
func (ct *Container) OpenArray(p *sim.Proc, oid vos.ObjectID) (*Array, error) {
	obj, err := ct.OpenObject(p, oid)
	if err != nil {
		return nil, err
	}
	return &Array{Obj: obj, ChunkSize: ct.Props.ChunkSize}, nil
}

// chunkSpan describes the intersection of an I/O with one chunk.
type chunkSpan struct {
	chunk  int64 // chunk index
	inOff  int64 // offset within the chunk
	bufLo  int64 // offset within the caller's buffer
	length int64
}

// spans splits [off, off+n) into per-chunk pieces.
func (a *Array) spans(off, n int64) []chunkSpan {
	var out []chunkSpan
	var bufLo int64
	for n > 0 {
		chunk := off / a.ChunkSize
		inOff := off % a.ChunkSize
		l := a.ChunkSize - inOff
		if l > n {
			l = n
		}
		out = append(out, chunkSpan{chunk: chunk, inOff: inOff, bufLo: bufLo, length: l})
		off += l
		n -= l
		bufLo += l
	}
	return out
}

// Write stores data at the byte offset. The store keeps data, not a copy:
// do not modify it after the call.
func (a *Array) Write(p *sim.Proc, off int64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	spans := a.spans(off, int64(len(data)))
	writes := make([]engine.WriteExt, 0, len(spans))
	for _, sp := range spans {
		writes = append(writes, engine.WriteExt{
			Dkey:   engine.ChunkDkey(sp.chunk),
			Akey:   arrayAkey,
			Offset: sp.inOff,
			Data:   data[sp.bufLo : sp.bufLo+sp.length],
		})
	}
	return a.Obj.Update(p, writes)
}

// ReadAtInto fetches n bytes at the byte offset as visible at epoch (0 =
// latest) into dst, which must be n bytes long. Each chunk span lands in its
// disjoint sub-slice of dst directly (the engine fills the span in place),
// so every byte materializes exactly once with no assembly pass; chunks with
// no data on their shard read as zeros. A nil dst simulates the read —
// identical RPCs, identical timing — without materializing any bytes.
func (a *Array) ReadAtInto(p *sim.Proc, off int64, n int64, epoch vos.Epoch, dst []byte) error {
	if n <= 0 {
		return nil
	}
	if dst != nil && int64(len(dst)) != n {
		return fmt.Errorf("daos: array read into %d-byte buffer, want %d", len(dst), n)
	}
	spans := a.spans(off, n)
	reads := make([]engine.ReadExt, 0, len(spans))
	for _, sp := range spans {
		rd := engine.ReadExt{
			Dkey:   engine.ChunkDkey(sp.chunk),
			Akey:   arrayAkey,
			Offset: sp.inOff,
			Length: int(sp.length),
		}
		if dst == nil {
			rd.Discard = true
		} else {
			rd.Dst = dst[sp.bufLo : sp.bufLo+sp.length]
		}
		reads = append(reads, rd)
	}
	data, err := a.Obj.Fetch(p, reads, epoch)
	if err != nil {
		return err
	}
	if dst != nil {
		// A nil entry is a chunk absent on its shard (never written): its
		// span is a hole, and holes read as zeros even into reused buffers.
		for i, sp := range spans {
			if data[i] == nil {
				clear(dst[sp.bufLo : sp.bufLo+sp.length])
			}
		}
	}
	return nil
}

// Read fetches n bytes at the byte offset as visible at epoch (0 = latest).
// Holes read as zeros: a read entirely inside an unwritten region returns a
// zeroed buffer, exactly like a partially covered one.
func (a *Array) ReadAt(p *sim.Proc, off int64, n int64, epoch vos.Epoch) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	buf := make([]byte, n)
	if err := a.ReadAtInto(p, off, n, epoch, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Read fetches the latest data at the byte offset.
func (a *Array) Read(p *sim.Proc, off int64, n int64) ([]byte, error) {
	return a.ReadAt(p, off, n, 0)
}

// Size returns the array's end-of-file: the max high-water mark across
// shards.
func (a *Array) Size(p *sim.Proc) (int64, error) {
	if err := a.Obj.refresh(); err != nil {
		return 0, err
	}
	c := a.Obj.cont.Pool.client
	var max int64
	var firstErr error
	wg := sim.NewWaitGroup(c.sim)
	for _, sh := range a.Obj.Layout.Shards {
		sh := sh
		wg.Go("daos-size", func(cp *sim.Proc) {
			// Like Fetch, fall back across the shard's replicas when the
			// leader's engine is down (failure injection).
			var resp fabric.Response
			for _, tgt := range sh {
				resp = a.Obj.call(cp, tgt, &engine.SizeReq{
					Cont:      a.Obj.cont.UUID,
					OID:       a.Obj.OID,
					Target:    tgt,
					Akey:      arrayAkey,
					ChunkSize: a.ChunkSize,
				})
				if resp.Err == nil || !errors.Is(resp.Err, engine.ErrEngineDown) {
					break
				}
			}
			if resp.Err != nil {
				if firstErr == nil {
					firstErr = resp.Err
				}
				return
			}
			if b := resp.Body.(*engine.SizeResp).Bytes; b > max {
				max = b
			}
		})
		p.Sleep(c.costs.RPCIssue)
	}
	wg.Wait(p)
	if firstErr != nil {
		return 0, fmt.Errorf("daos: array size: %w", firstErr)
	}
	return max, nil
}

// Punch removes the array object.
func (a *Array) Punch(p *sim.Proc) error { return a.Obj.Punch(p) }
