package mpiio_test

import (
	"testing"

	"daosim/internal/dfs"
	"daosim/internal/mpi"
	"daosim/internal/mpiio"
	"daosim/internal/sim"
)

// BenchmarkCollectiveReadVerified times one verified two-phase collective
// read in the shape of small-verify's collective case: 2 nodes x 8 ranks
// over DFuse with one aggregator per node, each rank reading 64 KiB of its
// own 1 MiB block. Each aggregator's covering read spans about 7 MiB, of
// which its ranks request 512 KiB.
func BenchmarkCollectiveReadVerified(b *testing.B) {
	const nodes, ppn, block, size = 2, 8, 1 << 20, 64 << 10
	bootEnv(b, nodes*ppn, func(i int) int { return i / ppn }, func(p *sim.Proc, e *env) {
		e.world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			f, err := mpiio.OpenPOSIX(cp, r, e.mounts[r.ID()], "/bench.dat", true, dfs.CreateOpts{}, mpiio.DefaultHints(ppn))
			if err != nil {
				b.Error(err)
				return
			}
			base := int64(r.ID()) * block
			if err := f.WriteAt(cp, base, pattern(r.ID(), block)); err != nil {
				b.Error(err)
				return
			}
			dst := make([]byte, size)
			r.Barrier(cp)
			if r.ID() == 0 {
				b.ReportAllocs()
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if err := f.ReadAtAllInto(cp, base+int64(i%(block/size))*size, size, dst); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
