package hdf5

// The data sieve buffer reproduces H5FD sec2's default caching for
// contiguous datasets: partial accesses are staged through an aligned
// buffer (H5Pset_sieve_buf_size, 1 MiB default). Because stock HDF5 lays
// contiguous data out unaligned (right after the object header), bulk
// sequential I/O repeatedly straddles sieve windows, and every window
// change costs a read-modify-write on the write path and a serial window
// load on the read path. This — together with the synchronous metadata
// writes — is the mechanism behind the paper's "HDF5 using the DFuse mount
// gives much lower performance" result.
//
// Parallel HDF5 disables the sieve (the MPI-I/O VFD never engages it);
// File.SetSieve(0) mirrors that, and the IOR shared-file backend uses it,
// which is why HDF5 converges with the other interfaces in Figure 2.

import (
	"bytes"

	"daosim/internal/sim"
)

// sieve is the per-file staging buffer.
type sieve struct {
	size   int64
	start  int64 // aligned window start; -1 when empty
	data   []byte
	dirty  bool
	loaded bool // data holds the window's bytes (false after a discard load)
}

// DefaultSieveSize is the staging window for contiguous datasets. HDF5's
// own default sieve buffer is 64 KiB; we model a moderately tuned 256 KiB
// buffer (what many sites set) — still small enough that bulk unaligned
// transfers dissolve into serial read-modify-write round trips.
const DefaultSieveSize = int64(256) << 10

// SetSieve sets the sieve buffer size for subsequent contiguous dataset
// I/O. Zero disables staging (parallel-HDF5 behaviour). Any buffered dirty
// data is NOT implicitly flushed; call Flush first when changing modes
// mid-file.
func (f *File) SetSieve(size int64) {
	if size <= 0 {
		f.sieve = nil
		return
	}
	f.sieve = &sieve{size: size, start: -1, data: make([]byte, size)}
}

// flushSieve writes a dirty window back through the VFD. The store keeps
// the flushed bytes, and loadSieve and sieveWrite overwrite the staging
// buffer in place, so staging continues on a copy.
func (f *File) flushSieve(p *sim.Proc) error {
	s := f.sieve
	if s == nil || !s.dirty {
		return nil
	}
	if err := f.vfd.WriteAt(p, s.start, s.data); err != nil {
		return err
	}
	s.data = bytes.Clone(s.data)
	s.dirty = false
	return nil
}

// loadSieve positions the window over the region containing off,
// read-modify-write style: flush the old window, then read the new one
// straight into the staging buffer. With materialize false the window load
// is simulated (same VFD request, same flush) without filling the buffer;
// a later materializing access to the same window re-reads it, so discard
// reads never poison the staging state.
func (f *File) loadSieve(p *sim.Proc, off int64, materialize bool) error {
	s := f.sieve
	window := off - off%s.size
	if s.start == window && (s.loaded || !materialize) {
		return nil
	}
	if s.start != window {
		if err := f.flushSieve(p); err != nil {
			return err
		}
	}
	var dst []byte
	if materialize {
		dst = s.data
	}
	if err := f.vfd.ReadAtInto(p, window, s.size, dst); err != nil {
		return err
	}
	s.start = window
	s.loaded = materialize
	return nil
}

// sieveWrite stages a contiguous-dataset write through the sieve. Writes
// that exactly cover whole windows bypass the buffer (as HDF5 does), so
// aligned applications avoid the penalty — the tuning the ablation bench
// demonstrates.
func (f *File) sieveWrite(p *sim.Proc, off int64, data []byte) error {
	s := f.sieve
	for len(data) > 0 {
		window := off - off%s.size
		if off == window && int64(len(data)) >= s.size {
			// Full-window write: bypass.
			if s.start == window {
				s.start = -1 // invalidate stale staging
				s.dirty = false
			}
			if err := f.vfd.WriteAt(p, off, data[:s.size]); err != nil {
				return err
			}
			off += s.size
			data = data[s.size:]
			continue
		}
		if err := f.loadSieve(p, off, true); err != nil {
			return err
		}
		lo := off - s.start
		n := s.size - lo
		if n > int64(len(data)) {
			n = int64(len(data))
		}
		copy(s.data[lo:lo+n], data[:n])
		s.dirty = true
		off += n
		data = data[n:]
	}
	return nil
}

// sieveRead serves a contiguous-dataset read through the sieve, loading
// windows serially (HDF5 performs its own buffering, so the kernel's
// parallel readahead never engages). Bytes land in the caller's dst; a nil
// dst walks the same window-load sequence without materializing anything.
func (f *File) sieveRead(p *sim.Proc, off int64, n int64, dst []byte) error {
	s := f.sieve
	var pos int64
	for pos < n {
		if err := f.loadSieve(p, off+pos, dst != nil); err != nil {
			return err
		}
		lo := off + pos - s.start
		l := s.size - lo
		if l > n-pos {
			l = n - pos
		}
		if dst != nil {
			copy(dst[pos:pos+l], s.data[lo:lo+l])
		}
		pos += l
	}
	return nil
}
