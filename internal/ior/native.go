package ior

import (
	"fmt"
	"time"

	"daosim/internal/daos"
	"daosim/internal/mpi"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

// newContainers creates a fresh container and opens it from every rank's
// client (no DFS namespace — raw object access).
func (env *Env) newContainers(p *sim.Proc, class placement.ClassID) ([]*daos.Container, error) {
	env.contSeq++
	label := fmt.Sprintf("ior-native-c%04d", env.contSeq)
	if _, err := env.pool.CreateContainer(p, label, daos.ContProps{Class: class}); err != nil {
		return nil, err
	}
	var out []*daos.Container
	for _, cl := range env.clients {
		pl, err := cl.Connect(p, "ior-pool")
		if err != nil {
			return nil, err
		}
		ct, err := pl.OpenContainer(p, label)
		if err != nil {
			return nil, err
		}
		out = append(out, ct)
	}
	return out, nil
}

// RunNativeArray drives the IOR easy workload through the raw DAOS array
// API — no DFS namespace, no directory entries, no POSIX semantics. This is
// the benchmarking direction the paper's §V lists as future work ("extending
// benchmarking to use the DAOS API rather than DFS or DFuse POSIX-based
// backends"). Each rank writes and reads back its own array object of the
// given class. It returns aggregate write and read bandwidth in GiB/s.
// Nothing checks the data, so every write is length-only and every read
// simulated without a destination: timing depends only on lengths.
func RunNativeArray(p *sim.Proc, env *Env, block, transfer int64, class placement.ClassID) (writeGiBs, readGiBs float64, err error) {
	if block <= 0 || transfer <= 0 || block%transfer != 0 {
		return 0, 0, fmt.Errorf("ior: bad native geometry block=%d transfer=%d", block, transfer)
	}
	conts, err := env.newContainers(p, class)
	if err != nil {
		return 0, 0, err
	}
	ranks := env.World.Size()
	ops := int(block / transfer)
	var firstErr error
	var writeSpan, readSpan time.Duration
	env.World.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
		ct := conts[r.ID()]

		r.Barrier(cp)
		start := cp.Now()
		arr, err := ct.OpenArray(cp, ct.AllocOID(class))
		if err != nil {
			firstErr = err
			return
		}
		for i := 0; i < ops; i++ {
			if err := arr.WriteAtFrom(cp, int64(i)*transfer, transfer, nil); err != nil {
				firstErr = err
				return
			}
		}
		r.Barrier(cp)
		writeSpan = r.AllreduceDuration(cp, cp.Now()-start, "max")

		r.Barrier(cp)
		start = cp.Now()
		for i := 0; i < ops; i++ {
			if err := arr.ReadAtInto(cp, int64(i)*transfer, transfer, 0, nil); err != nil {
				firstErr = err
				return
			}
		}
		r.Barrier(cp)
		readSpan = r.AllreduceDuration(cp, cp.Now()-start, "max")
	})
	if firstErr != nil {
		return 0, 0, firstErr
	}
	gib := float64(int64(ranks)*block) / float64(int64(1)<<30)
	return gib / writeSpan.Seconds(), gib / readSpan.Seconds(), nil
}
