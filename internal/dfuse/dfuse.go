// Package dfuse models the DAOS FUSE daemon: the user-space mount point
// that lets unmodified POSIX applications reach a DFS namespace. The data
// path is what the paper's "MPI-I/O" and "HDF5" series ride (both run over
// the DFuse mount), so its overheads — kernel crossings, request splitting,
// daemon thread scheduling, and the bounce-buffer copy — are modelled
// explicitly:
//
//   - Every FUSE request pays RequestCost (two kernel crossings plus
//     dispatch).
//   - The kernel splits reads and writes into MaxRequest-sized FUSE
//     requests (1 MiB with FUSE big-writes, as dfuse configures).
//   - One dfuse daemon serves each client node; its thread pool is a shared
//     resource, so many ranks per node queue on it.
//   - Data crosses a bounce buffer at CopyBW while a daemon thread is held.
//   - Path lookups cost one request per component, with a dentry cache.
package dfuse

import (
	"fmt"
	"time"

	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/fabric"
	"daosim/internal/sim"
)

// Costs parameterizes the FUSE data path.
type Costs struct {
	// RequestCost is the fixed per-FUSE-request charge.
	RequestCost time.Duration
	// MaxRequest is the kernel's I/O split size.
	MaxRequest int64
	// CopyBW is the bounce-buffer memcpy bandwidth (bytes/s).
	CopyBW float64
	// Threads is the daemon's service thread count per node.
	Threads int
}

// DefaultCosts models dfuse with big-writes on a modern kernel.
func DefaultCosts() Costs {
	return Costs{
		RequestCost: 12 * time.Microsecond,
		MaxRequest:  1 << 20,
		CopyBW:      8.0e9,
		Threads:     16,
	}
}

// Mount is one node's dfuse daemon over a DFS filesystem. All ranks on the
// node share it (and queue on its thread pool), exactly as processes share
// a dfuse mount point.
type Mount struct {
	fs      *dfs.FS
	node    *fabric.Node
	costs   Costs
	threads *sim.Resource
	dentry  map[string]bool // dentry cache: paths already resolved

	// Requests counts FUSE requests served (observability).
	Requests int64
}

// NewMount attaches a dfuse daemon for the given client node.
func NewMount(s *sim.Sim, node *fabric.Node, fsys *dfs.FS, costs Costs) *Mount {
	if costs.Threads <= 0 || costs.MaxRequest <= 0 {
		panic("dfuse: invalid costs")
	}
	return &Mount{
		fs:      fsys,
		node:    node,
		costs:   costs,
		threads: sim.NewResource(s, node.Name()+"/dfuse", costs.Threads),
		dentry:  make(map[string]bool),
	}
}

// request charges one FUSE request around op.
func (m *Mount) request(p *sim.Proc, copyBytes int64, op func(p *sim.Proc) error) error {
	m.Requests++
	m.threads.Acquire(p)
	defer m.threads.Release()
	p.Sleep(m.costs.RequestCost)
	err := op(p)
	if copyBytes > 0 {
		p.Sleep(time.Duration(float64(copyBytes) / m.costs.CopyBW * 1e9))
	}
	return err
}

// lookupCost charges the FUSE lookups to resolve a path, one request per
// uncached component.
func (m *Mount) lookupCost(p *sim.Proc, path string) {
	prefix := ""
	for i := 0; i < len(path); i++ {
		if path[i] == '/' && i > 0 {
			prefix = path[:i]
			m.chargeLookup(p, prefix)
		}
	}
	m.chargeLookup(p, path)
}

func (m *Mount) chargeLookup(p *sim.Proc, prefix string) {
	if m.dentry[prefix] {
		return
	}
	m.Requests++
	m.threads.Acquire(p)
	p.Sleep(m.costs.RequestCost)
	m.threads.Release()
	m.dentry[prefix] = true
}

// File is an open POSIX file descriptor on the mount.
type File struct {
	mount *Mount
	f     *dfs.File
}

// OpenFlags mirror the POSIX open flags the shim needs.
type OpenFlags int

// Open flags.
const (
	O_RDONLY OpenFlags = 0
	O_RDWR   OpenFlags = 1 << iota
	O_CREATE
	O_EXCL
)

// Open opens (or creates) a file through the FUSE mount.
func (m *Mount) Open(p *sim.Proc, path string, flags OpenFlags, opts dfs.CreateOpts) (*File, error) {
	m.lookupCost(p, path)
	var f *dfs.File
	err := m.request(p, 0, func(p *sim.Proc) error {
		var err error
		switch {
		case flags&O_CREATE != 0 && flags&O_EXCL != 0:
			f, err = m.fs.Create(p, path, opts)
		case flags&O_CREATE != 0:
			f, err = m.fs.OpenOrCreate(p, path, opts)
		default:
			f, err = m.fs.Open(p, path)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("dfuse: open %s: %w", path, err)
	}
	return &File{mount: m, f: f}, nil
}

// Pwrite writes data at the offset. The store keeps data, not a copy: do
// not modify it after the call.
func (fd *File) Pwrite(p *sim.Proc, off int64, data []byte) (int, error) {
	return fd.PwriteFrom(p, off, int64(len(data)), data)
}

// PwriteFrom writes n bytes at the offset from src (nil, or n bytes long),
// split into FUSE-sized requests. The kernel keeps the requests of one
// syscall in flight concurrently (async direct I/O through the FUSE
// device), so segments overlap across daemon threads; the syscall
// completes when the slowest segment does. A nil src writes length-only
// with identical requests and timing (the bounce-buffer charge included);
// otherwise the store keeps src, not a copy: do not modify it after the
// call.
func (fd *File) PwriteFrom(p *sim.Proc, off int64, n int64, src []byte) (int, error) {
	m := fd.mount
	var segErr error
	wg := sim.NewWaitGroup(m.threads.Sim())
	var pos int64
	for pos < n {
		seg := n - pos
		if seg > m.costs.MaxRequest {
			seg = m.costs.MaxRequest
		}
		segOff := off + pos
		var segSrc []byte
		if src != nil {
			segSrc = src[pos : pos+seg]
		}
		wg.Go("fuse-write", func(cp *sim.Proc) {
			err := m.request(cp, seg, func(cp *sim.Proc) error {
				return fd.f.WriteAtFrom(cp, segOff, seg, segSrc)
			})
			if err != nil && segErr == nil {
				segErr = err
			}
		})
		pos += seg
	}
	wg.Wait(p)
	if segErr != nil {
		return 0, fmt.Errorf("dfuse: pwrite: %w", segErr)
	}
	return int(pos), nil
}

// PreadInto reads n bytes at the offset into dst (len(dst) == n; every byte
// is written, holes as zeros): PreadWant with every byte wanted.
func (fd *File) PreadInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	return fd.PreadWant(p, off, n, dst, nil)
}

// PreadWant reads n bytes at the offset into dst (len(dst) == n), split
// into FUSE-sized requests kept in flight concurrently, mirroring
// PwriteFrom: each segment lands in its disjoint sub-slice of dst directly.
// The bounce-buffer charge is unchanged — the kernel crossing still moves
// the bytes, the simulation just doesn't copy them again. A nil dst
// simulates the read with identical timing without materializing data.
// want lists the file ranges the caller will look at, sorted by offset
// (nil: every byte). A request none of them touches reads length-only with
// the same charges and leaves its bytes of dst as they were; the others
// pass want on to DFS.
func (fd *File) PreadWant(p *sim.Proc, off int64, n int64, dst []byte, want []daos.Range) error {
	m := fd.mount
	var segErr error
	wg := sim.NewWaitGroup(m.threads.Sim())
	rest := want
	var pos int64
	for pos < n {
		seg := n - pos
		if seg > m.costs.MaxRequest {
			seg = m.costs.MaxRequest
		}
		segOff := off + pos
		var segDst []byte
		if dst != nil {
			var lo, hi int64
			if rest, lo, hi = daos.Wanted(rest, segOff, seg); lo < hi {
				segDst = dst[pos : pos+seg]
			}
		}
		segLen := seg
		// A closure that captured want would grow every segment's
		// allocation, so only a segment that materializes part of a
		// want-aware read builds one.
		if want == nil || segDst == nil {
			wg.Go("fuse-read", func(cp *sim.Proc) { fd.readSegment(cp, segOff, segLen, segDst, nil, &segErr) })
		} else {
			segWant := rest
			wg.Go("fuse-read", func(cp *sim.Proc) { fd.readSegment(cp, segOff, segLen, segDst, segWant, &segErr) })
		}
		pos += seg
	}
	wg.Wait(p)
	if segErr != nil {
		return fmt.Errorf("dfuse: pread: %w", segErr)
	}
	return nil
}

// readSegment serves one FUSE read request of PreadWant, keeping the first
// failure in *errp.
func (fd *File) readSegment(p *sim.Proc, off, n int64, dst []byte, want []daos.Range, errp *error) {
	err := fd.mount.request(p, n, func(p *sim.Proc) error {
		return fd.f.ReadAtWant(p, off, n, dst, want)
	})
	if err != nil && *errp == nil {
		*errp = err
	}
}

// Fsync flushes (a FUSE round trip; DFS itself is already durable).
func (fd *File) Fsync(p *sim.Proc) error {
	return fd.mount.request(p, 0, func(p *sim.Proc) error { return fd.f.Sync(p) })
}

// Close releases the descriptor.
func (fd *File) Close(p *sim.Proc) error {
	return fd.mount.request(p, 0, func(p *sim.Proc) error { return fd.f.Close(p) })
}

// Positioned gives a descriptor the positioned-I/O shape of the layers
// that run over the mount (mpiio.Driver, hdf5.VFD, IOR's files):
// WriteAtFrom is PwriteFrom without the count, ReadAtInto is PreadInto,
// ReadAtWant is PreadWant, Sync is Fsync, and Close is the descriptor's
// own.
type Positioned struct{ *File }

// WriteAtFrom writes n bytes at the offset from src, as PwriteFrom does.
func (fd Positioned) WriteAtFrom(p *sim.Proc, off int64, n int64, src []byte) error {
	_, err := fd.PwriteFrom(p, off, n, src)
	return err
}

// ReadAtInto reads n bytes at the offset into dst, as PreadInto does.
func (fd Positioned) ReadAtInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	return fd.PreadInto(p, off, n, dst)
}

// ReadAtWant reads n bytes at the offset into dst, materializing what want
// touches, as PreadWant does.
func (fd Positioned) ReadAtWant(p *sim.Proc, off int64, n int64, dst []byte, want []daos.Range) error {
	return fd.PreadWant(p, off, n, dst, want)
}

// Sync flushes the file, as Fsync does.
func (fd Positioned) Sync(p *sim.Proc) error { return fd.Fsync(p) }

// Mkdir creates a directory through the mount.
func (m *Mount) Mkdir(p *sim.Proc, path string) error {
	return m.request(p, 0, func(p *sim.Proc) error { return m.fs.MkdirAll(p, path) })
}
