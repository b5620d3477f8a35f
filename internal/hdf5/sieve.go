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
	"errors"

	"daosim/internal/sim"
)

// sieve is the per-file staging buffer. While every staged write is
// length-only it needs no buffer: the window is positioned by discard
// loads, dirtiness is a flag, and the flush writes the whole window
// length-only, so the VFD sees exactly the requests content writes make.
type sieve struct {
	size  int64
	start int64  // aligned window start; -1 when empty
	data  []byte // size bytes, allocated by the first materializing load
	dirty bool
	// lengthOnly marks a dirty window whose staged writes carry no content.
	lengthOnly bool
	// loaded reports that data holds the window's bytes: false after a
	// discard load or a length-only write.
	loaded bool
}

// errMixedWindow reports a write whose content mode differs from the
// writes already staged in its dirty window: the window could be flushed
// neither with its bytes nor length-only.
var errMixedWindow = errors.New("hdf5: sieve window mixes content and length-only writes")

// DefaultSieveSize is the staging window for contiguous datasets. HDF5's
// own default sieve buffer is 64 KiB; we model a moderately tuned 256 KiB
// buffer (what many sites set) — still small enough that bulk unaligned
// transfers dissolve into serial read-modify-write round trips.
const DefaultSieveSize = int64(256) << 10

// SetSieve sets the sieve buffer size for subsequent contiguous dataset
// I/O. Zero disables staging (parallel-HDF5 behaviour). Only the size is
// recorded: the buffer is allocated by the first access that needs its
// bytes, so a file that disables the sieve, only simulates reads or only
// writes length-only never holds one. Any buffered dirty data is NOT
// implicitly flushed; call Flush first when changing modes mid-file.
func (f *File) SetSieve(size int64) {
	if size <= 0 {
		f.sieve = nil
		return
	}
	f.sieve = &sieve{size: size, start: -1}
}

// flushSieve writes a dirty window back through the VFD: all s.size bytes,
// length-only when its staged writes were. The store keeps flushed bytes,
// and loadSieve and sieveWrite overwrite the staging buffer in place, so
// staging continues on a copy after a content flush.
func (f *File) flushSieve(p *sim.Proc) error {
	s := f.sieve
	if s == nil || !s.dirty {
		return nil
	}
	var src []byte
	if !s.lengthOnly {
		src = s.data
	}
	if err := f.vfd.WriteAtFrom(p, s.start, s.size, src); err != nil {
		return err
	}
	if src != nil {
		s.data = bytes.Clone(s.data)
	}
	s.dirty = false
	return nil
}

// loadSieve positions the window over the region containing off,
// read-modify-write style: flush the old window, then read the new one
// straight into the staging buffer. With materialize false the window load
// is simulated (same VFD request, same flush) without filling the buffer;
// a later materializing access to the same window flushes what is staged
// and re-reads it, so discard reads never poison the staging state and a
// length-only window's bytes are asked of the store, which refuses them.
func (f *File) loadSieve(p *sim.Proc, off int64, materialize bool) error {
	s := f.sieve
	window := off - off%s.size
	if s.start == window && (s.loaded || !materialize) {
		return nil
	}
	if err := f.flushSieve(p); err != nil {
		return err
	}
	var dst []byte
	if materialize {
		if s.data == nil {
			s.data = make([]byte, s.size)
		}
		dst = s.data
	}
	if err := f.vfd.ReadAtInto(p, window, s.size, dst); err != nil {
		return err
	}
	s.start = window
	s.loaded = materialize
	return nil
}

// sieveWrite stages a contiguous-dataset write of n bytes from src (nil for
// a length-only write) through the sieve. Writes that exactly cover whole
// windows bypass the buffer (as HDF5 does), so aligned applications avoid
// the penalty — the tuning the ablation bench demonstrates. A length-only
// write positions its window with a discard load and only marks it dirty.
func (f *File) sieveWrite(p *sim.Proc, off int64, n int64, src []byte) error {
	s := f.sieve
	lengthOnly := src == nil
	var pos int64
	for pos < n {
		at := off + pos
		window := at - at%s.size
		if at == window && n-pos >= s.size {
			// Full-window write: bypass.
			if s.start == window {
				s.start = -1 // invalidate stale staging
				s.dirty = false
			}
			var seg []byte
			if src != nil {
				seg = src[pos : pos+s.size]
			}
			if err := f.vfd.WriteAtFrom(p, at, s.size, seg); err != nil {
				return err
			}
			pos += s.size
			continue
		}
		if s.dirty && s.start == window && s.lengthOnly != lengthOnly {
			return errMixedWindow
		}
		if err := f.loadSieve(p, at, !lengthOnly); err != nil {
			return err
		}
		lo := at - s.start
		l := s.size - lo
		if l > n-pos {
			l = n - pos
		}
		if lengthOnly {
			s.loaded = false
		} else {
			copy(s.data[lo:lo+l], src[pos:pos+l])
		}
		s.dirty, s.lengthOnly = true, lengthOnly
		pos += l
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
