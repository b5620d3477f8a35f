package ior

import (
	"errors"
	"fmt"

	"daosim/internal/dfs"
	"daosim/internal/dfuse"
	"daosim/internal/hdf5"
	"daosim/internal/mpi"
	"daosim/internal/mpiio"
	"daosim/internal/sim"
)

// handle is one open test file. writeAt writes n bytes from src (len ==
// n), or length-only from a nil src; readAtInto fills the caller's dst
// (len == n, holes as zeros) so one buffer serves every transfer, and a
// nil dst simulates the read with identical timing without materializing
// data. With verification off runIteration passes nil to both.
type handle interface {
	writeAt(p *sim.Proc, off int64, n int64, src []byte) error
	readAtInto(p *sim.Proc, off int64, n int64, dst []byte) error
	closeFile(p *sim.Proc) error
}

// backend creates/opens test files for one rank (IOR's AIORI layer).
type backend interface {
	create(p *sim.Proc, path string) (handle, error)
	open(p *sim.Proc, path string) (handle, error)
}

// newBackend builds the rank's backend for the configured API.
func newBackend(cfg Config, env *Env, ns *namespace, r *mpi.Rank) (backend, error) {
	opts := dfs.CreateOpts{Class: cfg.Class}
	switch cfg.API {
	case APIDFS:
		return &dfsBackend{fs: ns.fs[r.ID()], rank: r, shared: !cfg.FilePerProc, opts: opts}, nil
	case APIPosix:
		return &posixBackend{mount: ns.mounts[r.ID()], rank: r, shared: !cfg.FilePerProc, opts: opts}, nil
	case APIMPIIO:
		if cfg.Collective && cfg.FilePerProc {
			return nil, errors.New("ior: collective MPI-I/O requires a shared file")
		}
		return &mpiioBackend{
			mount:      ns.mounts[r.ID()],
			rank:       r,
			shared:     !cfg.FilePerProc,
			collective: cfg.Collective,
			opts:       opts,
			hints:      mpiio.DefaultHints(env.RanksPerNode),
		}, nil
	case APIHDF5:
		extent := cfg.BlockSize * int64(cfg.Segments)
		if !cfg.FilePerProc {
			extent *= int64(r.Size())
		}
		return &hdf5Backend{
			mount:  ns.mounts[r.ID()],
			rank:   r,
			shared: !cfg.FilePerProc,
			opts:   opts,
			extent: extent,
		}, nil
	default:
		return nil, fmt.Errorf("ior: unknown API %q", cfg.API)
	}
}

// --- DFS backend (libdfs direct, the paper's "DFS"/"DAOS" series) ---

type dfsBackend struct {
	fs     *dfs.FS
	rank   *mpi.Rank
	shared bool
	opts   dfs.CreateOpts
}

type dfsHandle struct{ f *dfs.File }

func (h *dfsHandle) writeAt(p *sim.Proc, off int64, n int64, src []byte) error {
	return h.f.WriteAtFrom(p, off, n, src)
}
func (h *dfsHandle) readAtInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	return h.f.ReadAtInto(p, off, n, dst)
}
func (h *dfsHandle) closeFile(p *sim.Proc) error { return h.f.Close(p) }

func (b *dfsBackend) create(p *sim.Proc, path string) (handle, error) {
	if !b.shared {
		f, err := b.fs.OpenOrCreate(p, path, b.opts)
		if err != nil {
			return nil, err
		}
		return &dfsHandle{f: f}, nil
	}
	// Shared file: rank 0 creates, everyone opens after the barrier.
	if b.rank.ID() == 0 {
		if _, err := b.fs.OpenOrCreate(p, path, b.opts); err != nil {
			return nil, err
		}
	}
	b.rank.Barrier(p)
	f, err := b.fs.Open(p, path)
	if err != nil {
		return nil, err
	}
	return &dfsHandle{f: f}, nil
}

func (b *dfsBackend) open(p *sim.Proc, path string) (handle, error) {
	f, err := b.fs.Open(p, path)
	if err != nil {
		return nil, err
	}
	return &dfsHandle{f: f}, nil
}

// --- POSIX backend (through the DFuse mount) ---

type posixBackend struct {
	mount  *dfuse.Mount
	rank   *mpi.Rank
	shared bool
	opts   dfs.CreateOpts
}

type posixHandle struct{ fd *dfuse.File }

func (h *posixHandle) writeAt(p *sim.Proc, off int64, n int64, src []byte) error {
	_, err := h.fd.PwriteFrom(p, off, n, src)
	return err
}
func (h *posixHandle) readAtInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	return h.fd.PreadInto(p, off, n, dst)
}
func (h *posixHandle) closeFile(p *sim.Proc) error { return h.fd.Close(p) }

func (b *posixBackend) create(p *sim.Proc, path string) (handle, error) {
	if !b.shared {
		fd, err := b.mount.Open(p, path, dfuse.O_CREATE|dfuse.O_RDWR, b.opts)
		if err != nil {
			return nil, err
		}
		return &posixHandle{fd: fd}, nil
	}
	if b.rank.ID() == 0 {
		fd, err := b.mount.Open(p, path, dfuse.O_CREATE|dfuse.O_RDWR, b.opts)
		if err != nil {
			return nil, err
		}
		fd.Close(p)
	}
	b.rank.Barrier(p)
	fd, err := b.mount.Open(p, path, dfuse.O_RDWR, b.opts)
	if err != nil {
		return nil, err
	}
	return &posixHandle{fd: fd}, nil
}

func (b *posixBackend) open(p *sim.Proc, path string) (handle, error) {
	fd, err := b.mount.Open(p, path, dfuse.O_RDWR, b.opts)
	if err != nil {
		return nil, err
	}
	return &posixHandle{fd: fd}, nil
}

// --- MPI-I/O backend (ROMIO over the DFuse mount, as in the paper) ---

type mpiioBackend struct {
	mount      *dfuse.Mount
	rank       *mpi.Rank
	shared     bool
	collective bool
	opts       dfs.CreateOpts
	hints      mpiio.Hints
}

type mpiioHandle struct {
	f          *mpiio.File
	collective bool
}

func (h *mpiioHandle) writeAt(p *sim.Proc, off int64, n int64, src []byte) error {
	if h.collective {
		return h.f.WriteAtAllFrom(p, off, n, src)
	}
	return h.f.WriteAtFrom(p, off, n, src)
}
func (h *mpiioHandle) readAtInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	if h.collective {
		return h.f.ReadAtAllInto(p, off, n, dst)
	}
	return h.f.ReadAtInto(p, off, n, dst)
}
func (h *mpiioHandle) closeFile(p *sim.Proc) error { return h.f.Close(p) }

func (b *mpiioBackend) create(p *sim.Proc, path string) (handle, error) {
	f, err := b.openPath(p, path, true)
	if err != nil {
		return nil, err
	}
	return &mpiioHandle{f: f, collective: b.collective}, nil
}

func (b *mpiioBackend) open(p *sim.Proc, path string) (handle, error) {
	f, err := b.openPath(p, path, false)
	if err != nil {
		return nil, err
	}
	return &mpiioHandle{f: f, collective: b.collective}, nil
}

func (b *mpiioBackend) openPath(p *sim.Proc, path string, create bool) (*mpiio.File, error) {
	if b.shared {
		return mpiio.OpenPOSIX(p, b.rank, b.mount, path, create, b.opts, b.hints)
	}
	// File-per-process: MPI_COMM_SELF semantics, no collective create.
	flags := dfuse.O_RDWR
	if create {
		flags |= dfuse.O_CREATE
	}
	fd, err := b.mount.Open(p, path, flags, b.opts)
	if err != nil {
		return nil, err
	}
	return mpiio.FromPOSIX(b.rank, fd, b.hints), nil
}

// --- HDF5 backend (miniature HDF5 over the DFuse mount) ---

type hdf5Backend struct {
	mount  *dfuse.Mount
	rank   *mpi.Rank
	shared bool
	opts   dfs.CreateOpts
	extent int64
}

type hdf5Handle struct {
	f  *hdf5.File
	ds *hdf5.Dataset
}

func (h *hdf5Handle) writeAt(p *sim.Proc, off int64, n int64, src []byte) error {
	return h.ds.WriteFrom(p, off, n, src)
}
func (h *hdf5Handle) readAtInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	return h.ds.ReadInto(p, off, n, dst)
}
func (h *hdf5Handle) closeFile(p *sim.Proc) error { return h.f.Close(p) }

const hdf5Dataset = "ior_dataset"

func (b *hdf5Backend) vfd(p *sim.Proc, path string, create bool) (hdf5.VFD, error) {
	flags := dfuse.O_RDWR
	if create {
		flags |= dfuse.O_CREATE
	}
	fd, err := b.mount.Open(p, path, flags, b.opts)
	if err != nil {
		return nil, err
	}
	return hdf5.NewPosixVFD(fd), nil
}

func (b *hdf5Backend) create(p *sim.Proc, path string) (handle, error) {
	if !b.shared {
		vfd, err := b.vfd(p, path, true)
		if err != nil {
			return nil, err
		}
		f, err := hdf5.Create(p, vfd, hdf5.DefaultCosts())
		if err != nil {
			return nil, err
		}
		ds, err := f.CreateDataset(p, hdf5Dataset, b.extent, 0)
		if err != nil {
			return nil, err
		}
		return &hdf5Handle{f: f, ds: ds}, nil
	}
	// Shared file: rank 0 lays out the file and dataset, flushes, and then
	// every rank opens it (several small metadata reads each).
	if b.rank.ID() == 0 {
		vfd, err := b.vfd(p, path, true)
		if err != nil {
			return nil, err
		}
		f, err := hdf5.Create(p, vfd, hdf5.DefaultCosts())
		if err != nil {
			return nil, err
		}
		if _, err := f.CreateDataset(p, hdf5Dataset, b.extent, 0); err != nil {
			return nil, err
		}
		if err := f.Close(p); err != nil {
			return nil, err
		}
	}
	b.rank.Barrier(p)
	return b.open(p, path)
}

func (b *hdf5Backend) open(p *sim.Proc, path string) (handle, error) {
	vfd, err := b.vfd(p, path, false)
	if err != nil {
		return nil, err
	}
	f, err := hdf5.Open(p, vfd, hdf5.DefaultCosts())
	if err != nil {
		return nil, err
	}
	if b.shared {
		// Parallel HDF5 disables the data sieve (the MPI-I/O VFD never
		// engages it); staging buffers would also corrupt concurrent
		// disjoint writers at window boundaries.
		f.SetSieve(0)
	}
	ds, err := f.OpenDataset(p, hdf5Dataset)
	if err != nil {
		return nil, err
	}
	return &hdf5Handle{f: f, ds: ds}, nil
}
