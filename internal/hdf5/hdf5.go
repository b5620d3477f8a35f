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
//     across FUSE requests. Every dataset is contiguous; the chunked
//     layout is not modelled.
//   - Flush writes an object index (a copy of every dataset header) and
//     rewrites the superblock; Open reads both back.
//   - Each dataset call charges library CPU (type/hyperslab bookkeeping).
//
// The VFD interface matches package mpiio's File and dfuse.Positioned,
// mirroring H5FD_mpio and H5FD_sec2.
package hdf5

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"daosim/internal/dfuse"
	"daosim/internal/sim"
)

// VFD is the virtual file driver under an HDF5 file. WriteAtFrom writes n
// bytes from src (len(src) == n) and may keep src itself, so the library
// never modifies a buffer after writing it; a nil src writes length-only
// with identical timing. ReadAtInto fills dst (len(dst) == n) in place, or
// — with a nil dst — simulates the read with identical timing while
// materializing nothing.
type VFD interface {
	WriteAtFrom(p *sim.Proc, off int64, n int64, src []byte) error
	ReadAtInto(p *sim.Proc, off int64, n int64, dst []byte) error
	Sync(p *sim.Proc) error
	Close(p *sim.Proc) error
}

// NewPosixVFD wraps a DFuse file as a VFD (H5FD_sec2 over the mount).
func NewPosixVFD(fd *dfuse.File) VFD { return dfuse.Positioned{File: fd} }

// Format constants.
const (
	superblockSize = 512
	headerSize     = 256
	magic          = 0x894D4844870A0D0A // "\x89MHD\x87\n\r\n"-ish
	version        = 1
	// layoutContiguous is the header's layout class byte: every dataset
	// is contiguous.
	layoutContiguous = 1
	// indexRecordSize is one object-index record: the header offset, a
	// reserved word (0), and a copy of the dataset header.
	indexRecordSize = 16 + headerSize
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
	headerOff int64
	dataOff   int64
}

// Create initializes a fresh HDF5 file on the VFD, writing the superblock
// immediately (a small synchronous metadata write at offset 0).
func Create(p *sim.Proc, vfd VFD, costs Costs) (*File, error) {
	f := &File{
		vfd:      vfd,
		costs:    costs,
		eof:      superblockSize,
		datasets: make(map[string]*Dataset),
		dirty:    true,
	}
	f.SetSieve(DefaultSieveSize)
	p.Sleep(costs.LibOp)
	if err := f.writeMeta(p, 0, f.encodeSuperblock(0, 0)); err != nil {
		return nil, fmt.Errorf("hdf5: create: %w", err)
	}
	return f, nil
}

// writeMeta writes a metadata block, which always carries its content.
func (f *File) writeMeta(p *sim.Proc, off int64, b []byte) error {
	return f.vfd.WriteAtFrom(p, off, int64(len(b)), b)
}

// Open reads an existing HDF5 file's superblock, object index, and dataset
// headers (several small reads — the open cost the paper's HDF5 runs pay on
// every rank). Each dataset header is read from the copy the object index
// keeps, never from the header block itself: the data sieve's window-0
// flush covers that block and may have written it length-only.
func Open(p *sim.Proc, vfd VFD, costs Costs) (*File, error) {
	p.Sleep(costs.LibOp)
	sb := make([]byte, superblockSize)
	if err := vfd.ReadAtInto(p, 0, superblockSize, sb); err != nil {
		return nil, fmt.Errorf("hdf5: open: %w", err)
	}
	if binary.LittleEndian.Uint64(sb[0:8]) != magic {
		return nil, ErrNotHDF5
	}
	f := &File{vfd: vfd, costs: costs, datasets: make(map[string]*Dataset)}
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

// CreateDataset adds a contiguous dataset of extent bytes, its data
// allocated immediately after the header (unaligned by design, as stock
// HDF5 lays files out). The chunked layout is not modelled: a non-zero
// chunkSize is an error.
func (f *File) CreateDataset(p *sim.Proc, name string, extent int64, chunkSize int64) (*Dataset, error) {
	if _, dup := f.datasets[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDatasetExists, name)
	}
	if extent <= 0 {
		return nil, fmt.Errorf("hdf5: dataset %s: extent must be positive", name)
	}
	if chunkSize != 0 {
		return nil, fmt.Errorf("hdf5: dataset %s: chunked layout not supported", name)
	}
	ds := &Dataset{file: f, Name: name, Extent: extent}
	ds.headerOff = f.alloc(headerSize)
	ds.dataOff = f.alloc(extent)
	f.datasets[name] = ds
	f.order = append(f.order, name)
	f.dirty = true
	p.Sleep(f.costs.LibOp)
	// The object header is written synchronously at creation: a small
	// metadata write in the middle of the data stream.
	if err := f.writeMeta(p, ds.headerOff, ds.encodeHeader()); err != nil {
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
	h[8] = layoutContiguous
	binary.LittleEndian.PutUint64(h[9:17], uint64(ds.Extent))
	binary.LittleEndian.PutUint64(h[17:25], uint64(ds.dataOff))
	// h[25:33] is the chunk size word, always 0.
	n := copy(h[34:], ds.Name)
	h[33] = byte(n)
	return h
}

func decodeHeader(h []byte) *Dataset {
	return &Dataset{
		Name:    string(h[34 : 34+int(h[33])]),
		Extent:  int64(binary.LittleEndian.Uint64(h[9:17])),
		dataOff: int64(binary.LittleEndian.Uint64(h[17:25])),
	}
}

// Write stores data at a byte offset within the dataset. The store may keep
// data itself: do not modify it after the call.
func (ds *Dataset) Write(p *sim.Proc, off int64, data []byte) error {
	return ds.WriteFrom(p, off, int64(len(data)), data)
}

// WriteFrom stores n bytes from src (len(src) == n) at a byte offset within
// the dataset. A nil src writes length-only: the same sieve window loads,
// VFD requests and library charges, but no content, so a later read into a
// buffer fails. The store may keep src itself: do not modify it after the
// call.
func (ds *Dataset) WriteFrom(p *sim.Proc, off int64, n int64, src []byte) error {
	if off < 0 || off+n > ds.Extent {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBounds, off, off+n, ds.Extent)
	}
	p.Sleep(ds.file.costs.LibOp)
	if ds.file.sieve != nil {
		return ds.file.sieveWrite(p, ds.dataOff+off, n, src)
	}
	return ds.file.vfd.WriteAtFrom(p, ds.dataOff+off, n, src)
}

// ReadInto fetches n bytes at a byte offset within the dataset into dst
// (len(dst) == n; every byte is written). A nil dst simulates the read —
// the same sieve window loads, VFD requests, and library charges — without
// materializing data.
func (ds *Dataset) ReadInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	if off < 0 || off+n > ds.Extent {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBounds, off, off+n, ds.Extent)
	}
	p.Sleep(ds.file.costs.LibOp)
	if ds.file.sieve != nil {
		return ds.file.sieveRead(p, ds.dataOff+off, n, dst)
	}
	return ds.file.vfd.ReadAtInto(p, ds.dataOff+off, n, dst)
}

// Flush writes the object index and the superblock (the metadata cache
// flush).
func (f *File) Flush(p *sim.Proc) error {
	if err := f.flushSieve(p); err != nil {
		return err
	}
	if !f.dirty {
		return nil
	}
	p.Sleep(f.costs.LibOp)
	// Object index (one record per dataset), then the superblock pointing
	// at it.
	indexOff := f.alloc(int64(len(f.order)) * indexRecordSize)
	idx := make([]byte, 0, len(f.order)*indexRecordSize)
	for _, name := range f.order {
		ds := f.datasets[name]
		idx = binary.LittleEndian.AppendUint64(idx, uint64(ds.headerOff))
		idx = binary.LittleEndian.AppendUint64(idx, 0)
		idx = append(idx, ds.encodeHeader()...)
	}
	if err := f.writeMeta(p, indexOff, idx); err != nil {
		return err
	}
	if err := f.writeMeta(p, 0, f.encodeSuperblock(indexOff, len(f.order))); err != nil {
		return err
	}
	f.dirty = false
	return f.vfd.Sync(p)
}

// readIndex loads the object index at open.
func (f *File) readIndex(p *sim.Proc, indexOff int64, count int) error {
	idx := make([]byte, count*indexRecordSize)
	if err := f.vfd.ReadAtInto(p, indexOff, int64(len(idx)), idx); err != nil {
		return fmt.Errorf("hdf5: index read: %w", err)
	}
	for rec := idx; len(rec) > 0; rec = rec[indexRecordSize:] {
		ds := decodeHeader(rec[16:indexRecordSize])
		ds.file = f
		ds.headerOff = int64(binary.LittleEndian.Uint64(rec[0:8]))
		f.datasets[ds.Name] = ds
		f.order = append(f.order, ds.Name)
	}
	return nil
}

// Close flushes metadata and closes the VFD.
func (f *File) Close(p *sim.Proc) error {
	if err := f.Flush(p); err != nil {
		return err
	}
	return f.vfd.Close(p)
}

// DataOffset exposes a contiguous dataset's absolute file offset (for
// parallel writers that coordinate slabs externally and for alignment
// tests).
func (ds *Dataset) DataOffset() int64 { return ds.dataOff }
