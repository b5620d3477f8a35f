// Package hdf5 implements a miniature HDF5-style array file format over a
// virtual file driver (VFD), reproducing the I/O behaviour that matters for
// the paper's HDF5-over-DFuse results rather than wire compatibility:
//
//   - A 512-byte superblock at offset 0 and a 256-byte object header per
//     dataset, written synchronously at creation: small metadata I/O
//     interleaved with data.
//   - Contiguous dataset data starts right after its header — *unaligned*
//     with any underlying chunk/stripe boundary (HDF5's default, no
//     H5Pset_alignment). Every large write through DFS therefore straddles
//     two 1 MiB chunks and costs an extra RPC; through DFuse it also splits
//     across FUSE requests.
//   - Chunked datasets keep an index (array-of-entries blocks in the style
//     of the v1 B-tree) that is flushed on close and read back at open.
//   - Each dataset call charges library CPU (type/hyperslab bookkeeping).
//
// The VFD interface matches package mpiio's File and a DFuse-backed POSIX
// adapter, mirroring H5FD_mpio and H5FD_sec2.
package hdf5

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"daosim/internal/dfuse"
	"daosim/internal/sim"
)

// VFD is the virtual file driver under an HDF5 file. WriteAt may keep data
// itself, so the library never modifies a buffer after writing it.
// ReadAtInto is the zero-copy read: it fills dst (len(dst) == n) in place,
// or — with a nil dst — simulates the read with identical timing while
// materializing nothing.
type VFD interface {
	WriteAt(p *sim.Proc, off int64, data []byte) error
	ReadAt(p *sim.Proc, off int64, n int64) ([]byte, error)
	ReadAtInto(p *sim.Proc, off int64, n int64, dst []byte) error
	Size(p *sim.Proc) (int64, error)
	Sync(p *sim.Proc) error
	Close(p *sim.Proc) error
}

// posixVFD adapts a DFuse file descriptor (H5FD_sec2 over the mount).
type posixVFD struct{ fd *dfuse.File }

// NewPosixVFD wraps a DFuse file as a VFD.
func NewPosixVFD(fd *dfuse.File) VFD { return &posixVFD{fd: fd} }

func (v *posixVFD) WriteAt(p *sim.Proc, off int64, data []byte) error {
	_, err := v.fd.Pwrite(p, off, data)
	return err
}
func (v *posixVFD) ReadAt(p *sim.Proc, off int64, n int64) ([]byte, error) {
	return v.fd.Pread(p, off, n)
}
func (v *posixVFD) ReadAtInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	return v.fd.PreadInto(p, off, n, dst)
}
func (v *posixVFD) Size(p *sim.Proc) (int64, error) { return v.fd.Size(p) }
func (v *posixVFD) Sync(p *sim.Proc) error          { return v.fd.Fsync(p) }
func (v *posixVFD) Close(p *sim.Proc) error         { return v.fd.Close(p) }

// Format constants.
const (
	superblockSize = 512
	headerSize     = 256
	magic          = 0x894D4844870A0D0A // "\x89MHD\x87\n\r\n"-ish
	version        = 1
	indexBlockCap  = 64 // chunk index entries per block
)

// Layout classes.
const (
	layoutContiguous = 1
	layoutChunked    = 2
)

// Errors.
var (
	ErrNotHDF5        = errors.New("hdf5: not an HDF5 file")
	ErrDatasetExists  = errors.New("hdf5: dataset exists")
	ErrDatasetMissing = errors.New("hdf5: no such dataset")
	ErrOutOfBounds    = errors.New("hdf5: access beyond dataset extent")
)

// Costs parameterize library CPU charges.
type Costs struct {
	// LibOp is the per-call CPU charge (hyperslab/type bookkeeping).
	LibOp time.Duration
}

// DefaultCosts models the HDF5 library software path.
func DefaultCosts() Costs { return Costs{LibOp: 10 * time.Microsecond} }

// File is an open HDF5 file.
type File struct {
	vfd      VFD
	costs    Costs
	eof      int64
	datasets map[string]*Dataset
	order    []string
	writable bool
	dirty    bool
	// sieve stages partial contiguous-dataset I/O (see sieve.go); nil when
	// disabled.
	sieve *sieve
}

// Dataset is one named array in the file.
type Dataset struct {
	file      *File
	Name      string
	Extent    int64 // bytes
	Layout    int
	headerOff int64
	dataOff   int64 // contiguous only
	chunkSize int64 // chunked only
	chunks    map[int64]chunkEntry
}

type chunkEntry struct {
	fileOff int64
	size    int64
}

// Create initializes a fresh HDF5 file on the VFD, writing the superblock
// immediately (a small synchronous metadata write at offset 0).
func Create(p *sim.Proc, vfd VFD, costs Costs) (*File, error) {
	f := &File{
		vfd:      vfd,
		costs:    costs,
		eof:      superblockSize,
		datasets: make(map[string]*Dataset),
		writable: true,
		dirty:    true,
	}
	f.SetSieve(DefaultSieveSize)
	p.Sleep(costs.LibOp)
	if err := vfd.WriteAt(p, 0, f.encodeSuperblock(0, 0)); err != nil {
		return nil, fmt.Errorf("hdf5: create: %w", err)
	}
	return f, nil
}

// Open reads an existing HDF5 file's superblock, object index, and dataset
// headers (several small reads — the open cost the paper's HDF5 runs pay on
// every rank).
func Open(p *sim.Proc, vfd VFD, costs Costs) (*File, error) {
	p.Sleep(costs.LibOp)
	sb, err := vfd.ReadAt(p, 0, superblockSize)
	if err != nil {
		return nil, fmt.Errorf("hdf5: open: %w", err)
	}
	if binary.LittleEndian.Uint64(sb[0:8]) != magic {
		return nil, ErrNotHDF5
	}
	f := &File{vfd: vfd, costs: costs, datasets: make(map[string]*Dataset), writable: true}
	f.SetSieve(DefaultSieveSize)
	f.eof = int64(binary.LittleEndian.Uint64(sb[12:20]))
	indexOff := int64(binary.LittleEndian.Uint64(sb[20:28]))
	count := int(binary.LittleEndian.Uint32(sb[28:32]))
	if count > 0 {
		if err := f.readIndex(p, indexOff, count); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *File) encodeSuperblock(indexOff int64, count int) []byte {
	sb := make([]byte, superblockSize)
	binary.LittleEndian.PutUint64(sb[0:8], magic)
	binary.LittleEndian.PutUint32(sb[8:12], version)
	binary.LittleEndian.PutUint64(sb[12:20], uint64(f.eof))
	binary.LittleEndian.PutUint64(sb[20:28], uint64(indexOff))
	binary.LittleEndian.PutUint32(sb[28:32], uint32(count))
	return sb
}

// alloc reserves n bytes at EOF.
func (f *File) alloc(n int64) int64 {
	off := f.eof
	f.eof += n
	return off
}

// CreateDataset adds a dataset of extent bytes. chunkSize > 0 selects the
// chunked layout; otherwise data is contiguous, allocated immediately after
// the header (unaligned by design, as stock HDF5 lays files out).
func (f *File) CreateDataset(p *sim.Proc, name string, extent int64, chunkSize int64) (*Dataset, error) {
	if _, dup := f.datasets[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDatasetExists, name)
	}
	if extent <= 0 {
		return nil, fmt.Errorf("hdf5: dataset %s: extent must be positive", name)
	}
	ds := &Dataset{file: f, Name: name, Extent: extent}
	ds.headerOff = f.alloc(headerSize)
	if chunkSize > 0 {
		ds.Layout = layoutChunked
		ds.chunkSize = chunkSize
		ds.chunks = make(map[int64]chunkEntry)
	} else {
		ds.Layout = layoutContiguous
		ds.dataOff = f.alloc(extent)
	}
	f.datasets[name] = ds
	f.order = append(f.order, name)
	f.dirty = true
	p.Sleep(f.costs.LibOp)
	// The object header is written synchronously at creation: a small
	// metadata write in the middle of the data stream.
	if err := f.vfd.WriteAt(p, ds.headerOff, ds.encodeHeader()); err != nil {
		return nil, fmt.Errorf("hdf5: dataset %s: %w", name, err)
	}
	return ds, nil
}

// OpenDataset looks up an existing dataset.
func (f *File) OpenDataset(p *sim.Proc, name string) (*Dataset, error) {
	p.Sleep(f.costs.LibOp)
	ds, ok := f.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrDatasetMissing, name)
	}
	return ds, nil
}

// Datasets returns dataset names in creation order.
func (f *File) Datasets() []string { return append([]string(nil), f.order...) }

func (ds *Dataset) encodeHeader() []byte {
	h := make([]byte, headerSize)
	binary.LittleEndian.PutUint64(h[0:8], magic)
	h[8] = byte(ds.Layout)
	binary.LittleEndian.PutUint64(h[9:17], uint64(ds.Extent))
	binary.LittleEndian.PutUint64(h[17:25], uint64(ds.dataOff))
	binary.LittleEndian.PutUint64(h[25:33], uint64(ds.chunkSize))
	n := copy(h[34:], ds.Name)
	h[33] = byte(n)
	return h
}

func decodeHeader(h []byte) *Dataset {
	ds := &Dataset{}
	ds.Layout = int(h[8])
	ds.Extent = int64(binary.LittleEndian.Uint64(h[9:17]))
	ds.dataOff = int64(binary.LittleEndian.Uint64(h[17:25]))
	ds.chunkSize = int64(binary.LittleEndian.Uint64(h[25:33]))
	ds.Name = string(h[34 : 34+int(h[33])])
	if ds.Layout == layoutChunked {
		ds.chunks = make(map[int64]chunkEntry)
	}
	return ds
}

// Write stores data at a byte offset within the dataset. The store may keep
// data itself: do not modify it after the call.
func (ds *Dataset) Write(p *sim.Proc, off int64, data []byte) error {
	if !ds.file.writable {
		return errors.New("hdf5: file not writable")
	}
	if off < 0 || off+int64(len(data)) > ds.Extent {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBounds, off, off+int64(len(data)), ds.Extent)
	}
	p.Sleep(ds.file.costs.LibOp)
	if ds.Layout == layoutContiguous {
		if ds.file.sieve != nil {
			return ds.file.sieveWrite(p, ds.dataOff+off, data)
		}
		return ds.file.vfd.WriteAt(p, ds.dataOff+off, data)
	}
	// Chunked: split across chunks, allocating at EOF on first touch.
	for len(data) > 0 {
		ci := off / ds.chunkSize
		inOff := off % ds.chunkSize
		n := ds.chunkSize - inOff
		if n > int64(len(data)) {
			n = int64(len(data))
		}
		ent, ok := ds.chunks[ci]
		if !ok {
			ent = chunkEntry{fileOff: ds.file.alloc(ds.chunkSize), size: ds.chunkSize}
			ds.chunks[ci] = ent
			ds.file.dirty = true
		}
		if err := ds.file.vfd.WriteAt(p, ent.fileOff+inOff, data[:n]); err != nil {
			return err
		}
		off += n
		data = data[n:]
	}
	return nil
}

// Read fetches n bytes at a byte offset within the dataset. Unwritten
// chunked regions read as zeros.
func (ds *Dataset) Read(p *sim.Proc, off int64, n int64) ([]byte, error) {
	out := make([]byte, n)
	if err := ds.ReadInto(p, off, n, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fetches n bytes at a byte offset within the dataset into dst
// (len(dst) == n; every byte is written, unwritten chunked regions as
// zeros). A nil dst simulates the read — the same sieve window loads, VFD
// requests, and library charges — without materializing data.
func (ds *Dataset) ReadInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	if off < 0 || off+n > ds.Extent {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBounds, off, off+n, ds.Extent)
	}
	p.Sleep(ds.file.costs.LibOp)
	if ds.Layout == layoutContiguous {
		if ds.file.sieve != nil {
			return ds.file.sieveRead(p, ds.dataOff+off, n, dst)
		}
		return ds.file.vfd.ReadAtInto(p, ds.dataOff+off, n, dst)
	}
	var pos int64
	for pos < n {
		ci := (off + pos) / ds.chunkSize
		inOff := (off + pos) % ds.chunkSize
		l := ds.chunkSize - inOff
		if l > n-pos {
			l = n - pos
		}
		ent, ok := ds.chunks[ci]
		switch {
		case ok && dst != nil:
			if err := ds.file.vfd.ReadAtInto(p, ent.fileOff+inOff, l, dst[pos:pos+l]); err != nil {
				return err
			}
		case ok:
			if err := ds.file.vfd.ReadAtInto(p, ent.fileOff+inOff, l, nil); err != nil {
				return err
			}
		case dst != nil:
			clear(dst[pos : pos+l]) // unallocated chunk: reads as zeros
		}
		pos += l
	}
	return nil
}

// Flush writes the object index, chunk indexes, and the superblock (the
// metadata cache flush).
func (f *File) Flush(p *sim.Proc) error {
	if err := f.flushSieve(p); err != nil {
		return err
	}
	if !f.dirty {
		return nil
	}
	p.Sleep(f.costs.LibOp)
	// Chunk index blocks first.
	for _, name := range f.order {
		ds := f.datasets[name]
		if ds.Layout != layoutChunked {
			continue
		}
		blocks := (len(ds.chunks) + indexBlockCap - 1) / indexBlockCap
		for b := 0; b < blocks; b++ {
			blockOff := f.alloc(int64(indexBlockCap * 24))
			if err := f.vfd.WriteAt(p, blockOff, ds.encodeChunkBlock(b)); err != nil {
				return err
			}
		}
	}
	// Object index (one record per dataset), then the superblock pointing
	// at it.
	indexOff := f.alloc(int64(len(f.order)) * (headerSize + 16))
	idx := make([]byte, 0, len(f.order)*(headerSize+16))
	for _, name := range f.order {
		ds := f.datasets[name]
		rec := make([]byte, 16)
		binary.LittleEndian.PutUint64(rec[0:8], uint64(ds.headerOff))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(len(ds.chunks)))
		idx = append(idx, rec...)
		idx = append(idx, ds.encodeHeader()...)
	}
	if err := f.vfd.WriteAt(p, indexOff, idx); err != nil {
		return err
	}
	if err := f.vfd.WriteAt(p, 0, f.encodeSuperblock(indexOff, len(f.order))); err != nil {
		return err
	}
	f.dirty = false
	return f.vfd.Sync(p)
}

// encodeChunkBlock serializes index block b of a chunked dataset.
func (ds *Dataset) encodeChunkBlock(b int) []byte {
	out := make([]byte, indexBlockCap*24)
	// Deterministic ordering of map entries by chunk index.
	indexes := make([]int64, 0, len(ds.chunks))
	for ci := range ds.chunks {
		indexes = append(indexes, ci)
	}
	sortInt64(indexes)
	lo := b * indexBlockCap
	for i := 0; i < indexBlockCap && lo+i < len(indexes); i++ {
		ci := indexes[lo+i]
		ent := ds.chunks[ci]
		base := i * 24
		binary.LittleEndian.PutUint64(out[base:base+8], uint64(ci))
		binary.LittleEndian.PutUint64(out[base+8:base+16], uint64(ent.fileOff))
		binary.LittleEndian.PutUint64(out[base+16:base+24], uint64(ent.size))
	}
	return out
}

func sortInt64(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// readIndex loads the object index and chunk indexes at open.
func (f *File) readIndex(p *sim.Proc, indexOff int64, count int) error {
	idx, err := f.vfd.ReadAt(p, indexOff, int64(count)*(headerSize+16))
	if err != nil {
		return fmt.Errorf("hdf5: index read: %w", err)
	}
	pos := 0
	type pendingChunks struct {
		ds     *Dataset
		chunks int
	}
	var pending []pendingChunks
	for i := 0; i < count; i++ {
		headerOff := int64(binary.LittleEndian.Uint64(idx[pos : pos+8]))
		nChunks := int(binary.LittleEndian.Uint64(idx[pos+8 : pos+16]))
		ds := decodeHeader(idx[pos+16 : pos+16+headerSize])
		ds.file = f
		ds.headerOff = headerOff
		f.datasets[ds.Name] = ds
		f.order = append(f.order, ds.Name)
		if ds.Layout == layoutChunked && nChunks > 0 {
			pending = append(pending, pendingChunks{ds: ds, chunks: nChunks})
		}
		pos += 16 + headerSize
	}
	// Chunk index blocks sit just before the object index, in flush order.
	// Walk backwards to locate them.
	blockBytes := int64(indexBlockCap * 24)
	var totalBlocks int64
	for _, pc := range pending {
		totalBlocks += int64((pc.chunks + indexBlockCap - 1) / indexBlockCap)
	}
	blockOff := indexOff - totalBlocks*blockBytes
	for _, pc := range pending {
		blocks := (pc.chunks + indexBlockCap - 1) / indexBlockCap
		loaded := 0
		for b := 0; b < blocks; b++ {
			raw, err := f.vfd.ReadAt(p, blockOff, blockBytes)
			if err != nil {
				return fmt.Errorf("hdf5: chunk index read: %w", err)
			}
			for i := 0; i < indexBlockCap && loaded < pc.chunks; i++ {
				base := i * 24
				ci := int64(binary.LittleEndian.Uint64(raw[base : base+8]))
				fileOff := int64(binary.LittleEndian.Uint64(raw[base+8 : base+16]))
				size := int64(binary.LittleEndian.Uint64(raw[base+16 : base+24]))
				pc.ds.chunks[ci] = chunkEntry{fileOff: fileOff, size: size}
				loaded++
			}
			blockOff += blockBytes
		}
	}
	return nil
}

// Close flushes metadata and closes the VFD.
func (f *File) Close(p *sim.Proc) error {
	if f.writable {
		if err := f.Flush(p); err != nil {
			return err
		}
	}
	return f.vfd.Close(p)
}

// DataOffset exposes a contiguous dataset's absolute file offset (for
// parallel writers that coordinate slabs externally and for alignment
// tests).
func (ds *Dataset) DataOffset() int64 { return ds.dataOff }
