// Package mpiio implements MPI-I/O middleware in the style of ROMIO: file
// handles opened collectively over an ADIO driver, independent read/write,
// and two-phase collective I/O with node-level aggregators.
//
// Two ADIO drivers mirror the paper's configurations: a dfs.File calls
// libdfs directly (DAOS-native MPI-I/O), and a dfuse.Positioned descriptor
// goes through the DFuse mount (how MPI-I/O ran in the paper's
// evaluation).
package mpiio

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/dfuse"
	"daosim/internal/mpi"
	"daosim/internal/sim"
)

// Driver is the ADIO device abstraction (one open handle per rank), which
// *dfs.File and dfuse.Positioned satisfy. WriteAtFrom writes n bytes from
// src (len(src) == n), or — with a nil src — writes length-only with
// identical timing. ReadAtWant fills dst (len(dst) == n) in place, or —
// with a nil dst — simulates the read with identical timing while
// materializing nothing; with a non-nil want (file ranges sorted by
// offset) it materializes only the hull of the wanted bytes in each
// sub-read they touch, leaving the rest of dst as it was.
type Driver interface {
	WriteAtFrom(p *sim.Proc, off int64, n int64, src []byte) error
	ReadAtWant(p *sim.Proc, off int64, n int64, dst []byte, want []daos.Range) error
	Sync(p *sim.Proc) error
	Close(p *sim.Proc) error
}

// Hints configure collective buffering, mirroring ROMIO's cb_* hints.
type Hints struct {
	// AggStride selects aggregators: ranks with ID % AggStride == 0.
	// Set it to the ranks-per-node to get one aggregator per node
	// (ROMIO's cb_nodes default). Minimum 1 (every rank aggregates).
	AggStride int
	// CBBufSize bounds each aggregator write (ROMIO cb_buffer_size).
	CBBufSize int64
}

// DefaultHints returns ROMIO-style defaults for the given ranks-per-node.
func DefaultHints(ranksPerNode int) Hints {
	if ranksPerNode < 1 {
		ranksPerNode = 1
	}
	return Hints{AggStride: ranksPerNode, CBBufSize: 16 << 20}
}

// File is an open MPI-I/O handle (per rank).
type File struct {
	rank  *mpi.Rank
	drv   Driver
	hints Hints
	// readBuf is the aggregator's covering-read buffer, and want the
	// ranges of it that requesters observe; both are reused across
	// ReadAtAllInto calls and grown only when a call needs more.
	readBuf []byte
	want    []daos.Range
	// worldSizeOverride substitutes for rank.Size() in tests that exercise
	// domain construction without a live world.
	worldSizeOverride int
}

// worldSize returns the communicator size backing collective domains.
func (f *File) worldSize() int {
	if f.rank == nil {
		return f.worldSizeOverride
	}
	return f.rank.Size()
}

// OpenDFS opens path through the DFS ADIO driver, collectively: rank 0
// creates the file when create is set, then every rank opens it.
func OpenDFS(p *sim.Proc, r *mpi.Rank, fsys *dfs.FS, path string, create bool, opts dfs.CreateOpts, hints Hints) (*File, error) {
	if create && r.ID() == 0 {
		if _, err := fsys.OpenOrCreate(p, path, opts); err != nil {
			return nil, fmt.Errorf("mpiio: create %s: %w", path, err)
		}
	}
	r.Barrier(p)
	f, err := fsys.Open(p, path)
	if err != nil {
		return nil, fmt.Errorf("mpiio: open %s: %w", path, err)
	}
	return newFile(r, f, hints), nil
}

// OpenPOSIX opens path through the POSIX ADIO driver over the rank's DFuse
// mount.
func OpenPOSIX(p *sim.Proc, r *mpi.Rank, mount *dfuse.Mount, path string, create bool, opts dfs.CreateOpts, hints Hints) (*File, error) {
	if create && r.ID() == 0 {
		fd, err := mount.Open(p, path, dfuse.O_CREATE|dfuse.O_RDWR, opts)
		if err != nil {
			return nil, fmt.Errorf("mpiio: create %s: %w", path, err)
		}
		fd.Close(p)
	}
	r.Barrier(p)
	fd, err := mount.Open(p, path, dfuse.O_RDWR, opts)
	if err != nil {
		return nil, fmt.Errorf("mpiio: open %s: %w", path, err)
	}
	return newFile(r, dfuse.Positioned{File: fd}, hints), nil
}

// FromPOSIX wraps an already-open DFuse descriptor as an MPI-I/O handle
// (MPI_COMM_SELF-style file-per-process opens, as IOR uses in easy mode).
func FromPOSIX(r *mpi.Rank, fd *dfuse.File, hints Hints) *File {
	return newFile(r, dfuse.Positioned{File: fd}, hints)
}

func newFile(r *mpi.Rank, drv Driver, hints Hints) *File {
	if hints.AggStride < 1 {
		hints.AggStride = 1
	}
	if hints.CBBufSize <= 0 {
		hints.CBBufSize = 16 << 20
	}
	return &File{rank: r, drv: drv, hints: hints}
}

// WriteAt performs an independent write at the byte offset. The
// store keeps data, not a copy: do not modify it after the call.
func (f *File) WriteAt(p *sim.Proc, off int64, data []byte) error {
	return f.WriteAtFrom(p, off, int64(len(data)), data)
}

// WriteAtFrom performs an independent write of n bytes at the byte offset
// from src (len(src) == n). A nil src writes length-only with identical
// timing.
func (f *File) WriteAtFrom(p *sim.Proc, off int64, n int64, src []byte) error {
	return f.drv.WriteAtFrom(p, off, n, src)
}

// ReadAtInto performs an independent read at the byte offset into
// dst (len(dst) == n; every byte is written). A nil dst simulates the read
// with identical timing without materializing data.
func (f *File) ReadAtInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	return f.drv.ReadAtWant(p, off, n, dst, nil)
}

// Sync flushes the file.
func (f *File) Sync(p *sim.Proc) error { return f.drv.Sync(p) }

// Close closes the handle.
func (f *File) Close(p *sim.Proc) error { return f.drv.Close(p) }

// piece is a shuffle unit in two-phase I/O.
type piece struct {
	Off  int64
	Data []byte // nil in read-request phase and for length-only writes
	Len  int64
	// Discard marks a read request whose bytes the requester will not
	// observe: the aggregator answers with timing-equivalent empty pieces
	// (exchange sizes unchanged) and skips materializing for it.
	Discard bool
	// Err carries an aggregator's failed covering read to the requester
	// in an answer of unchanged size, so every rank leaves the collective
	// with the error instead of some waiting on an exchange that never
	// comes.
	Err error
}

// aggDomains partitions [lo, hi) into one contiguous file domain per
// aggregator.
func (f *File) aggDomains(lo, hi int64) (aggs []int, bounds []int64) {
	n := f.worldSize()
	for id := 0; id < n; id += f.hints.AggStride {
		aggs = append(aggs, id)
	}
	span := hi - lo
	per := (span + int64(len(aggs)) - 1) / int64(len(aggs))
	bounds = make([]int64, len(aggs)+1)
	for i := range aggs {
		b := lo + int64(i)*per
		if b > hi {
			b = hi // trailing aggregators get empty domains on tiny extents
		}
		bounds[i] = b
	}
	bounds[len(aggs)] = hi
	return aggs, bounds
}

// routePieces splits [off, off+len) across domains, producing one piece per
// intersecting aggregator.
func routePieces(off int64, data []byte, length int64, aggs []int, bounds []int64, vals []interface{}, sizes []int64) {
	end := off + length
	for i, agg := range aggs {
		dLo, dHi := bounds[i], bounds[i+1]
		if end <= dLo || off >= dHi {
			continue
		}
		lo, hi := off, end
		if lo < dLo {
			lo = dLo
		}
		if hi > dHi {
			hi = dHi
		}
		pc := &piece{Off: lo, Len: hi - lo}
		if data != nil {
			pc.Data = data[lo-off : hi-off]
		}
		vals[agg] = appendPiece(vals[agg], pc)
		sizes[agg] += hi - lo
	}
}

func appendPiece(v interface{}, pc *piece) []*piece {
	if v == nil {
		return []*piece{pc}
	}
	return append(v.([]*piece), pc)
}

// WriteAtAll performs a two-phase collective write of data. Every rank
// must call it (pass nil data for zero-length participation). The store
// may keep data itself: do not modify it after the call.
func (f *File) WriteAtAll(p *sim.Proc, off int64, data []byte) error {
	return f.WriteAtAllFrom(p, off, int64(len(data)), data)
}

// WriteAtAllFrom performs a two-phase collective write of n bytes from src
// (len(src) == n): ranks shuffle their pieces to node aggregators, which
// write coalesced contiguous runs. A nil src writes length-only: pieces
// carry only their lengths, exchanges keep their sizes, and an aggregator
// writes an all-length-only run without gathering a buffer. Every rank
// must call it (n == 0 for zero-length participation).
func (f *File) WriteAtAllFrom(p *sim.Proc, off int64, n int64, src []byte) error {
	lo, hi, ok := f.collectiveExtent(p, off, n)
	if !ok {
		return nil // nobody wrote anything
	}
	aggs, bounds := f.aggDomains(lo, hi)
	vals := make([]interface{}, f.rank.Size())
	sizes := make([]int64, f.rank.Size())
	if n > 0 {
		routePieces(off, src, n, aggs, bounds, vals, sizes)
	}
	incoming := f.rank.Exchange(p, vals, sizes)
	// Aggregators coalesce and write their domain.
	var pieces []*piece
	for _, rcv := range incoming {
		pieces = append(pieces, rcv.Val.([]*piece)...)
	}
	err := f.writeCoalesced(p, pieces)
	// Collective completion: everyone waits for the slowest aggregator.
	errCount := 0.0
	if err != nil {
		errCount = 1
	}
	if f.rank.AllreduceFloat(p, errCount, "sum") > 0 {
		if err != nil {
			return err
		}
		return errors.New("mpiio: collective write failed on a peer")
	}
	return nil
}

// errMixedRun reports a coalesced run holding both content and length-only
// pieces: its bytes can be neither gathered nor written length-only.
var errMixedRun = errors.New("mpiio: collective write run mixes content and length-only pieces")

// writeCoalesced sorts pieces and writes contiguous runs, bounded by
// CBBufSize per driver call. The store keeps every buffer it is handed, so
// a run of one piece is written straight from the sender's bytes, a longer
// run is gathered into a buffer of exactly its own size (a CBBufSize
// buffer per run would pin 16 MiB behind every small piece), and a run of
// length-only pieces is written length-only without a buffer.
func (f *File) writeCoalesced(p *sim.Proc, pieces []*piece) error {
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].Off < pieces[j].Off })
	for len(pieces) > 0 {
		n, size := 1, pieces[0].Len
		lengthOnly := pieces[0].Data == nil
		for n < len(pieces) && pieces[n].Off == pieces[0].Off+size && size+pieces[n].Len <= f.hints.CBBufSize {
			if (pieces[n].Data == nil) != lengthOnly {
				return errMixedRun
			}
			size += pieces[n].Len
			n++
		}
		run := pieces[0].Data
		if n > 1 && !lengthOnly {
			run = make([]byte, 0, size)
			for _, pc := range pieces[:n] {
				run = append(run, pc.Data...)
			}
		}
		if err := f.drv.WriteAtFrom(p, pieces[0].Off, size, run); err != nil {
			return err
		}
		pieces = pieces[n:]
	}
	return nil
}

// ReadAtAllInto performs a two-phase collective read: aggregators read
// their file domains and ship each rank its pieces, which land directly in
// dst (len(dst) == n; the answered pieces cover every byte). A rank
// passing a nil dst sends discard-tagged requests: exchanges keep their
// sizes (the shuffle still ships the bytes in simulated time). An
// aggregator's covering read materializes, in each sub-read, only the
// hull of the bytes that ranks passing a dst request, so bytes between
// requests in different chunks are never copied and an all-discard
// collective moves nothing; it fails with vos.ErrNoContent only when a
// length-only byte lies in a hull it materializes. Every rank must call it
// (nil dst with n == 0 for zero-length participation).
func (f *File) ReadAtAllInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	lo, hi, ok := f.collectiveExtent(p, off, n)
	if !ok {
		return nil // nobody read anything
	}
	aggs, bounds := f.aggDomains(lo, hi)

	// Phase 1: route read requests (descriptors only) to aggregators.
	vals := make([]interface{}, f.rank.Size())
	sizes := make([]int64, f.rank.Size())
	if n > 0 {
		routePieces(off, nil, n, aggs, bounds, vals, sizes)
		if dst == nil {
			for _, v := range vals {
				if v != nil {
					for _, pc := range v.([]*piece) {
						pc.Discard = true
					}
				}
			}
		}
		for i := range sizes {
			if sizes[i] > 0 {
				sizes[i] = 64 // request descriptors are tiny
			}
		}
	}
	requests := f.rank.Exchange(p, vals, sizes)

	// Aggregators read the covering extent of the requests addressed to
	// them, then answer each request from that buffer. The covering read
	// materializes only the hull of the observed requests in each sub-read;
	// its timing is identical whatever it materializes.
	var myReqs []*piece
	reqFrom := make([]int, 0)
	want := f.want[:0]
	for _, rcv := range requests {
		ps := rcv.Val.([]*piece)
		myReqs = append(myReqs, ps...)
		for _, rq := range ps {
			reqFrom = append(reqFrom, rcv.From)
			if !rq.Discard {
				want = append(want, daos.Range{Off: rq.Off, Len: rq.Len})
			}
		}
	}
	f.want = want
	slices.SortFunc(want, func(a, b daos.Range) int { return cmp.Compare(a.Off, b.Off) })
	answers := make([]interface{}, f.rank.Size())
	ansSizes := make([]int64, f.rank.Size())
	if len(myReqs) > 0 {
		rlo, rhi := myReqs[0].Off, myReqs[0].Off+myReqs[0].Len
		for _, rq := range myReqs[1:] {
			if rq.Off < rlo {
				rlo = rq.Off
			}
			if rq.Off+rq.Len > rhi {
				rhi = rq.Off + rq.Len
			}
		}
		// Answers alias the covering buffer only until their receivers
		// copy them out, and every receiver does that before any rank can
		// pass the next collective call's collectiveExtent allreduce, so
		// one buffer per File serves every call.
		var buf []byte
		if len(want) > 0 {
			if int64(cap(f.readBuf)) < rhi-rlo {
				f.readBuf = make([]byte, rhi-rlo)
			}
			buf = f.readBuf[:rhi-rlo]
		}
		err := f.drv.ReadAtWant(p, rlo, rhi-rlo, buf, want)
		for i, rq := range myReqs {
			pc := &piece{Off: rq.Off, Len: rq.Len, Err: err}
			if !rq.Discard && err == nil {
				pc.Data = buf[rq.Off-rlo : rq.Off-rlo+rq.Len]
			}
			answers[reqFrom[i]] = appendPiece(answers[reqFrom[i]], pc)
			ansSizes[reqFrom[i]] += rq.Len
		}
	}
	incoming := f.rank.Exchange(p, answers, ansSizes)

	// Assemble this rank's buffer from the answers; the domain partition
	// covers [off, off+n) exactly, so every byte of dst is written.
	for _, rcv := range incoming {
		for _, pc := range rcv.Val.([]*piece) {
			if pc.Err != nil {
				return fmt.Errorf("mpiio: collective read: %w", pc.Err)
			}
			if dst != nil {
				copy(dst[pc.Off-off:pc.Off-off+pc.Len], pc.Data)
			}
		}
	}
	return nil
}

// collectiveExtent agrees on the union extent of a collective op; ok is
// false when every rank passed zero length.
func (f *File) collectiveExtent(p *sim.Proc, off, n int64) (lo, hi int64, ok bool) {
	myLo, myHi := off, off+n
	if n <= 0 {
		// Neutral elements so empty ranks do not skew the reduction.
		myLo, myHi = int64(1)<<62, -1
	}
	lo = int64(f.rank.AllreduceFloat(p, float64(myLo), "min"))
	hi = int64(f.rank.AllreduceFloat(p, float64(myHi), "max"))
	return lo, hi, hi > lo
}
