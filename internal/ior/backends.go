package ior

import (
	"daosim/internal/dfs"
	"daosim/internal/dfuse"
	"daosim/internal/hdf5"
	"daosim/internal/mpi"
	"daosim/internal/mpiio"
	"daosim/internal/sim"
)

// file is one open test file: *dfs.File, dfuse.Positioned and *mpiio.File
// as they are, a collective MPI-I/O file, or an HDF5 dataset. WriteAtFrom
// writes n bytes from src (len == n), or length-only from a nil src;
// ReadAtInto fills the caller's dst (len == n, holes as zeros) so one
// buffer serves every transfer, and a nil dst simulates the read with
// identical timing without materializing data. With verification off
// runIteration passes nil to both.
type file interface {
	WriteAtFrom(p *sim.Proc, off int64, n int64, src []byte) error
	ReadAtInto(p *sim.Proc, off int64, n int64, dst []byte) error
	Close(p *sim.Proc) error
}

// backend opens one rank's test files through the configured API (IOR's
// AIORI layer): DFS through libdfs, the others through the node's DFuse
// mount.
type backend struct {
	cfg    *Config
	rank   *mpi.Rank
	fs     *dfs.FS
	mount  *dfuse.Mount
	hints  mpiio.Hints
	extent int64 // the HDF5 dataset's bytes
}

// newBackend builds the rank's backend for the configured API.
func newBackend(cfg *Config, env *Env, ns *namespace, r *mpi.Rank) *backend {
	extent := cfg.BlockSize * int64(cfg.Segments)
	if !cfg.FilePerProc {
		extent *= int64(r.Size())
	}
	return &backend{
		cfg:    cfg,
		rank:   r,
		fs:     ns.fs[r.ID()],
		mount:  ns.mounts[r.ID()],
		hints:  mpiio.DefaultHints(env.RanksPerNode),
		extent: extent,
	}
}

// openFile opens path, creating it when create is set. A rank opens its
// own file alone. A shared file is created and closed by rank 0, then
// opened by every rank after a barrier; MPI-I/O's collective open does
// both steps itself.
func (b *backend) openFile(p *sim.Proc, path string, create bool) (file, error) {
	if create && !b.cfg.FilePerProc && b.cfg.API != APIMPIIO {
		if b.rank.ID() == 0 {
			f, err := b.open(p, path, true)
			if err != nil {
				return nil, err
			}
			if err := f.Close(p); err != nil {
				return nil, err
			}
		}
		b.rank.Barrier(p)
		create = false
	}
	return b.open(p, path, create)
}

// open opens path through the configured API. Only a shared MPI-I/O file
// is opened collectively.
func (b *backend) open(p *sim.Proc, path string, create bool) (file, error) {
	opts := dfs.CreateOpts{Class: b.cfg.Class}
	if b.cfg.API == APIDFS {
		var f *dfs.File
		var err error
		if create {
			f, err = b.fs.OpenOrCreate(p, path, opts)
		} else {
			f, err = b.fs.Open(p, path)
		}
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	if b.cfg.API == APIMPIIO && !b.cfg.FilePerProc {
		f, err := mpiio.OpenPOSIX(p, b.rank, b.mount, path, create, opts, b.hints)
		if err != nil {
			return nil, err
		}
		if b.cfg.Collective {
			return collective{f}, nil
		}
		return f, nil
	}
	flags := dfuse.O_RDWR
	if create {
		flags |= dfuse.O_CREATE
	}
	fd, err := b.mount.Open(p, path, flags, opts)
	if err != nil {
		return nil, err
	}
	switch b.cfg.API {
	case APIMPIIO:
		// File-per-process: MPI_COMM_SELF semantics, no collective open.
		return mpiio.FromPOSIX(b.rank, fd, b.hints), nil
	case APIHDF5:
		return b.openDataset(p, hdf5.NewPosixVFD(fd), create)
	}
	return dfuse.Positioned{File: fd}, nil
}

// collective moves a shared MPI-I/O file's transfers through the two-phase
// collective calls.
type collective struct{ *mpiio.File }

func (c collective) WriteAtFrom(p *sim.Proc, off int64, n int64, src []byte) error {
	return c.WriteAtAllFrom(p, off, n, src)
}
func (c collective) ReadAtInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	return c.ReadAtAllInto(p, off, n, dst)
}

const hdf5Dataset = "ior_dataset"

// dataset is IOR's HDF5 dataset; closing it closes its file.
type dataset struct {
	ds *hdf5.Dataset
	f  *hdf5.File
}

func (d dataset) WriteAtFrom(p *sim.Proc, off int64, n int64, src []byte) error {
	return d.ds.WriteFrom(p, off, n, src)
}
func (d dataset) ReadAtInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	return d.ds.ReadInto(p, off, n, dst)
}
func (d dataset) Close(p *sim.Proc) error { return d.f.Close(p) }

// openDataset lays out a new HDF5 file and its dataset on vfd, or opens
// the dataset of an existing file.
func (b *backend) openDataset(p *sim.Proc, vfd hdf5.VFD, create bool) (file, error) {
	var d dataset
	var err error
	if create {
		if d.f, err = hdf5.Create(p, vfd, hdf5.DefaultCosts()); err == nil {
			d.ds, err = d.f.CreateDataset(p, hdf5Dataset, b.extent, 0)
		}
	} else if d.f, err = hdf5.Open(p, vfd, hdf5.DefaultCosts()); err == nil {
		if !b.cfg.FilePerProc {
			// Parallel HDF5 disables the data sieve (the MPI-I/O VFD never
			// engages it); staging buffers would also corrupt concurrent
			// disjoint writers at window boundaries.
			d.f.SetSieve(0)
		}
		d.ds, err = d.f.OpenDataset(p, hdf5Dataset)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}
