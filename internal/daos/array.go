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

// chunk returns the piece of [off, off+n) that lies in off's chunk: the
// chunk index, the offset within it, and the piece's length.
func (a *Array) chunk(off, n int64) (idx, inOff, length int64) {
	idx, inOff = off/a.ChunkSize, off%a.ChunkSize
	return idx, inOff, min(a.ChunkSize-inOff, n)
}

// chunks returns how many chunks [off, off+n) touches, for n > 0.
func (a *Array) chunks(off, n int64) int {
	return int((off+n-1)/a.ChunkSize - off/a.ChunkSize + 1)
}

// Write stores data at the byte offset. The store keeps data, not a copy:
// do not modify it after the call.
func (a *Array) Write(p *sim.Proc, off int64, data []byte) error {
	return a.WriteAtFrom(p, off, int64(len(data)), data)
}

// WriteAtFrom stores n bytes at the byte offset, which must not be
// negative, from src, which is nil or n bytes long. A nil src is a
// length-only write: identical RPCs and timing, but the extents record only
// their ranges, and a later read that asks for their bytes fails with
// vos.ErrNoContent. The store keeps src, not a copy:
// do not modify it after the call.
func (a *Array) WriteAtFrom(p *sim.Proc, off int64, n int64, src []byte) error {
	if off < 0 {
		return fmt.Errorf("daos: array write at negative offset %d", off)
	}
	if n <= 0 {
		return nil
	}
	if src != nil && int64(len(src)) != n {
		return fmt.Errorf("daos: array write from %d-byte buffer, want %d", len(src), n)
	}
	writes := make([]engine.WriteExt, 0, a.chunks(off, n))
	for done := int64(0); done < n; {
		idx, inOff, l := a.chunk(off+done, n-done)
		w := engine.WriteExt{
			Dkey:   engine.ChunkDkey(idx),
			Akey:   arrayAkey,
			Offset: inOff,
			Len:    l,
		}
		if src != nil {
			w.Data = src[done : done+l]
		}
		writes = append(writes, w)
		done += l
	}
	return a.Obj.Update(p, writes)
}

// Range is the byte range [Off, Off+Len) of an array or a file.
type Range struct{ Off, Len int64 }

// Wanted returns [lo, hi), the hull of want's bytes in [off, off+n), where
// want is a list sorted by offset in which nil stands for every byte; lo
// equals hi when no range of want meets [off, off+n). It also returns want
// less the ranges that end at or before off, so a read that visits its
// sub-reads in ascending order walks want once.
func Wanted(want []Range, off, n int64) (rest []Range, lo, hi int64) {
	end := off + n
	if want == nil {
		return nil, off, end
	}
	for len(want) > 0 && want[0].Off+want[0].Len <= off {
		want = want[1:]
	}
	lo, hi = end, off
	for _, r := range want {
		if r.Off >= end {
			break
		}
		if r.Off+r.Len > off {
			lo, hi = min(lo, max(r.Off, off)), max(hi, min(r.Off+r.Len, end))
		}
	}
	if lo >= hi {
		return want, off, off
	}
	return want, lo, hi
}

// ReadAtInto fetches n bytes at the byte offset, which must not be
// negative, as visible at epoch (0 = latest) into dst, which must be n
// bytes long: ReadAtWant with every byte wanted.
func (a *Array) ReadAtInto(p *sim.Proc, off int64, n int64, epoch vos.Epoch, dst []byte) error {
	return a.ReadAtWant(p, off, n, epoch, dst, nil)
}

// ReadAtWant fetches n bytes at the byte offset, which must not be
// negative, as visible at epoch (0 = latest) into dst, which must be n
// bytes long. Each chunk span lands in its disjoint sub-slice of dst
// directly (the engine fills the span in place), so every byte
// materializes exactly once with no assembly pass; chunks with no data on
// their shard read as zeros. A nil dst simulates the read — identical RPCs,
// identical timing — without materializing any bytes. want lists the
// ranges of the array the caller will look at, sorted by offset (nil: every
// byte): a chunk span materializes only the hull of the wanted bytes in it
// (engine.ReadExt.At places it), one no wanted range touches is read
// length-only, and every span keeps its timing. The other bytes of dst are
// left as they were, and only a byte in a hull can fail the read with
// vos.ErrNoContent.
func (a *Array) ReadAtWant(p *sim.Proc, off int64, n int64, epoch vos.Epoch, dst []byte, want []Range) error {
	if off < 0 {
		return fmt.Errorf("daos: array read at negative offset %d", off)
	}
	if n <= 0 {
		return nil
	}
	if dst != nil && int64(len(dst)) != n {
		return fmt.Errorf("daos: array read into %d-byte buffer, want %d", len(dst), n)
	}
	reads := make([]engine.ReadExt, 0, a.chunks(off, n))
	for done := int64(0); done < n; {
		idx, inOff, l := a.chunk(off+done, n-done)
		rd := engine.ReadExt{
			Dkey:   engine.ChunkDkey(idx),
			Akey:   arrayAkey,
			Offset: inOff,
			Length: int(l),
		}
		if dst != nil {
			var lo, hi int64
			if want, lo, hi = Wanted(want, off+done, l); lo < hi {
				rd.At, rd.Dst = lo-(off+done), dst[lo-off:hi-off]
			}
		}
		reads = append(reads, rd)
		done += l
	}
	data, err := a.Obj.Fetch(p, reads, epoch)
	if err != nil {
		return err
	}
	// A nil entry is a chunk absent on its shard (never written): its span
	// is a hole, and holes read as zeros even into reused buffers. Only the
	// hull a Dst takes is cleared; a length-only read has no Dst to clear.
	for i, rd := range reads {
		if data[i] == nil {
			clear(rd.Dst)
		}
	}
	return nil
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
