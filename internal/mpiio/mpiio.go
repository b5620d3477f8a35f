// Package mpiio implements MPI-I/O middleware in the style of ROMIO: file
// handles opened collectively over an ADIO driver, independent read/write,
// and two-phase collective I/O with node-level aggregators.
//
// Two ADIO drivers mirror the paper's configurations: the DFS driver calls
// libdfs directly (DAOS-native MPI-I/O), and the POSIX driver goes through
// the DFuse mount (how MPI-I/O ran in the paper's evaluation).
package mpiio

import (
	"errors"
	"fmt"
	"sort"

	"daosim/internal/dfs"
	"daosim/internal/dfuse"
	"daosim/internal/mpi"
	"daosim/internal/sim"
)

// Driver is the ADIO device abstraction (one open handle per rank).
// ReadAtInto is the zero-copy variant of ReadAt: it fills dst (len(dst) ==
// n) in place, or — with a nil dst — simulates the read with identical
// timing while materializing nothing.
type Driver interface {
	WriteAt(p *sim.Proc, off int64, data []byte) error
	ReadAt(p *sim.Proc, off int64, n int64) ([]byte, error)
	ReadAtInto(p *sim.Proc, off int64, n int64, dst []byte) error
	Size(p *sim.Proc) (int64, error)
	Sync(p *sim.Proc) error
	Close(p *sim.Proc) error
}

// dfsDriver drives a DFS file directly.
type dfsDriver struct{ f *dfs.File }

func (d *dfsDriver) WriteAt(p *sim.Proc, off int64, data []byte) error {
	return d.f.WriteAt(p, off, data)
}
func (d *dfsDriver) ReadAt(p *sim.Proc, off int64, n int64) ([]byte, error) {
	return d.f.ReadAt(p, off, n)
}
func (d *dfsDriver) ReadAtInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	return d.f.ReadAtInto(p, off, n, dst)
}
func (d *dfsDriver) Size(p *sim.Proc) (int64, error) { return d.f.Size(p) }
func (d *dfsDriver) Sync(p *sim.Proc) error          { return d.f.Sync(p) }
func (d *dfsDriver) Close(p *sim.Proc) error         { return d.f.Close(p) }

// posixDriver drives a file through a DFuse mount.
type posixDriver struct{ fd *dfuse.File }

func (d *posixDriver) WriteAt(p *sim.Proc, off int64, data []byte) error {
	_, err := d.fd.Pwrite(p, off, data)
	return err
}
func (d *posixDriver) ReadAt(p *sim.Proc, off int64, n int64) ([]byte, error) {
	return d.fd.Pread(p, off, n)
}
func (d *posixDriver) ReadAtInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	return d.fd.PreadInto(p, off, n, dst)
}
func (d *posixDriver) Size(p *sim.Proc) (int64, error) { return d.fd.Size(p) }
func (d *posixDriver) Sync(p *sim.Proc) error          { return d.fd.Fsync(p) }
func (d *posixDriver) Close(p *sim.Proc) error         { return d.fd.Close(p) }

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
	disp  int64 // file view displacement
	// readBuf is the aggregator's covering-read buffer, reused across
	// ReadAtAllInto calls and grown only when a call needs more.
	readBuf []byte
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
	return newFile(r, &dfsDriver{f: f}, hints), nil
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
	return newFile(r, &posixDriver{fd: fd}, hints), nil
}

// FromPOSIX wraps an already-open DFuse descriptor as an MPI-I/O handle
// (MPI_COMM_SELF-style file-per-process opens, as IOR uses in easy mode).
func FromPOSIX(r *mpi.Rank, fd *dfuse.File, hints Hints) *File {
	return newFile(r, &posixDriver{fd: fd}, hints)
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

// SetView sets the file view displacement (MPI_File_set_view with a byte
// etype).
func (f *File) SetView(disp int64) { f.disp = disp }

// WriteAt performs an independent write at the view-relative offset. The
// store keeps data, not a copy: do not modify it after the call.
func (f *File) WriteAt(p *sim.Proc, off int64, data []byte) error {
	return f.drv.WriteAt(p, f.disp+off, data)
}

// ReadAt performs an independent read at the view-relative offset.
func (f *File) ReadAt(p *sim.Proc, off int64, n int64) ([]byte, error) {
	return f.drv.ReadAt(p, f.disp+off, n)
}

// ReadAtInto performs an independent read at the view-relative offset into
// dst (len(dst) == n; every byte is written). A nil dst simulates the read
// with identical timing without materializing data.
func (f *File) ReadAtInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	return f.drv.ReadAtInto(p, f.disp+off, n, dst)
}

// Size returns the file size.
func (f *File) Size(p *sim.Proc) (int64, error) { return f.drv.Size(p) }

// Sync flushes the file.
func (f *File) Sync(p *sim.Proc) error { return f.drv.Sync(p) }

// Close closes the handle.
func (f *File) Close(p *sim.Proc) error { return f.drv.Close(p) }

// piece is a shuffle unit in two-phase I/O.
type piece struct {
	Off  int64
	Data []byte // nil in read-request phase
	Len  int64
	// Discard marks a read request whose bytes the requester will not
	// observe: the aggregator answers with timing-equivalent empty pieces
	// (exchange sizes unchanged) and skips materializing for it.
	Discard bool
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

// WriteAtAll performs a two-phase collective write: ranks shuffle their data
// to node aggregators, which write coalesced contiguous runs. Every rank
// must call it (pass nil data for zero-length participation). The store
// may keep data itself: do not modify it after the call.
func (f *File) WriteAtAll(p *sim.Proc, off int64, data []byte) error {
	lo, hi, ok := f.collectiveExtent(p, off, int64(len(data)))
	if !ok {
		return nil // nobody wrote anything
	}
	aggs, bounds := f.aggDomains(lo, hi)
	vals := make([]interface{}, f.rank.Size())
	sizes := make([]int64, f.rank.Size())
	if len(data) > 0 {
		routePieces(f.disp+off, data, int64(len(data)), aggs, bounds, vals, sizes)
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

// writeCoalesced sorts pieces and writes contiguous runs, bounded by
// CBBufSize per driver call. The store keeps every buffer it is handed, so
// a run of one piece is written straight from the sender's bytes and a
// longer run is gathered into a buffer of exactly its own size (a
// CBBufSize buffer per run would pin 16 MiB behind every small piece).
func (f *File) writeCoalesced(p *sim.Proc, pieces []*piece) error {
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].Off < pieces[j].Off })
	for len(pieces) > 0 {
		n, size := 1, pieces[0].Len
		for n < len(pieces) && pieces[n].Off == pieces[0].Off+size && size+pieces[n].Len <= f.hints.CBBufSize {
			size += pieces[n].Len
			n++
		}
		run := pieces[0].Data
		if n > 1 {
			run = make([]byte, 0, size)
			for _, pc := range pieces[:n] {
				run = append(run, pc.Data...)
			}
		}
		if err := f.drv.WriteAt(p, pieces[0].Off, run); err != nil {
			return err
		}
		pieces = pieces[n:]
	}
	return nil
}

// ReadAtAll performs a two-phase collective read: aggregators read their
// file domains and ship each rank its pieces.
func (f *File) ReadAtAll(p *sim.Proc, off int64, n int64) ([]byte, error) {
	out := make([]byte, n)
	if err := f.ReadAtAllInto(p, off, n, out); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, nil
	}
	return out, nil
}

// ReadAtAllInto is the collective read landing each rank's pieces directly
// in dst (len(dst) == n; the answered pieces cover every byte). A rank
// passing a nil dst sends discard-tagged requests: exchanges keep their
// sizes (the shuffle still ships the bytes in simulated time) and an
// aggregator whose incoming requests are all discards skips materializing
// its covering read, so an all-discard collective moves nothing. Every rank
// must call it (nil dst with n == 0 for zero-length participation).
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
		routePieces(f.disp+off, nil, n, aggs, bounds, vals, sizes)
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
	// materializes only when some requester observes the bytes; its timing
	// is identical either way.
	var myReqs []*piece
	reqFrom := make([]int, 0)
	materialize := false
	for _, rcv := range requests {
		ps := rcv.Val.([]*piece)
		myReqs = append(myReqs, ps...)
		for _, rq := range ps {
			reqFrom = append(reqFrom, rcv.From)
			if !rq.Discard {
				materialize = true
			}
		}
	}
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
		if materialize {
			if int64(cap(f.readBuf)) < rhi-rlo {
				f.readBuf = make([]byte, rhi-rlo)
			}
			buf = f.readBuf[:rhi-rlo]
		}
		if err := f.drv.ReadAtInto(p, rlo, rhi-rlo, buf); err != nil {
			return err
		}
		for i, rq := range myReqs {
			pc := &piece{Off: rq.Off, Len: rq.Len}
			if !rq.Discard {
				pc.Data = buf[rq.Off-rlo : rq.Off-rlo+rq.Len]
			}
			answers[reqFrom[i]] = appendPiece(answers[reqFrom[i]], pc)
			ansSizes[reqFrom[i]] += rq.Len
		}
	}
	incoming := f.rank.Exchange(p, answers, ansSizes)

	// Assemble this rank's buffer from the answers; the domain partition
	// covers [off, off+n) exactly, so every byte of dst is written.
	if dst == nil {
		return nil
	}
	base := f.disp + off
	for _, rcv := range incoming {
		for _, pc := range rcv.Val.([]*piece) {
			copy(dst[pc.Off-base:pc.Off-base+pc.Len], pc.Data)
		}
	}
	return nil
}

// collectiveExtent agrees on the union extent of a collective op; ok is
// false when every rank passed zero length.
func (f *File) collectiveExtent(p *sim.Proc, off, n int64) (lo, hi int64, ok bool) {
	myLo, myHi := f.disp+off, f.disp+off+n
	if n <= 0 {
		// Neutral elements so empty ranks do not skew the reduction.
		myLo, myHi = int64(1)<<62, -1
	}
	lo = int64(f.rank.AllreduceFloat(p, float64(myLo), "min"))
	hi = int64(f.rank.AllreduceFloat(p, float64(myHi), "max"))
	return lo, hi, hi > lo
}

// Rank returns the rank that opened the handle (for tests that need it).
func (f *File) Rank() *mpi.Rank { return f.rank }
