package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"daosim/internal/cache"
	"daosim/internal/cluster"
	"daosim/internal/core"
	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/dfuse"
	"daosim/internal/engine"
	"daosim/internal/fabric"
	"daosim/internal/hdf5"
	"daosim/internal/jobstore"
	"daosim/internal/mpi"
	"daosim/internal/mpiio"
	"daosim/internal/placement"
	"daosim/internal/sim"
	"daosim/internal/studysvc"
	"daosim/internal/vos"
)

// The ladder times each data-path layer on its own by calling its public
// functions directly: one rank on a NEXTGenIO testbed writing then reading
// an S2 object, file or dataset, one rung per layer. A rung's host time
// includes every layer below it, so the report's self column (a rung minus
// the rung below) is the layer's own cost. Rung times are means over the
// rung's ops, so amortized costs (HDF5 sieve flushes, garbage collection of
// retained extents) count and self times add up.

// shape is one ladder transfer size. 2m reads pass a nil destination, as
// paper-sweep's unverified IOR does; 64k reads land in a caller buffer, as
// small-verify's verified IOR does.
type shape struct {
	name string
	size int64
	buf  bool
}

var shapes = []shape{{"2m", 2 << 20, false}, {"64k", 64 << 10, true}}

// The rungs in stack order, bottom first; self time subtracts the previous.
var (
	writeRungs = []string{"vos.update", "engine.update", "daos.write", "dfs.write", "dfuse.pwrite", "mpiio.write", "hdf5.write"}
	readRungs  = []string{"vos.fetch", "engine.fetch", "daos.read", "dfs.read", "dfuse.pread", "mpiio.read", "hdf5.read"}
)

// opStats is one timed rung or probe.
type opStats struct {
	host   []float64 // host µs of each op
	allocB float64   // bytes allocated per op
	virtUs float64   // simulated µs per op
}

// hostUs is the mean host µs per op.
func (s opStats) hostUs() float64 {
	sum := 0.0
	for _, h := range s.host {
		sum += h
	}
	return sum / float64(len(s.host))
}

// timeOps runs op n times after a garbage collection, timing each call on
// the host clock and on clock (the simulated clock, or nil outside a
// simulation), and records a span for the whole run of ops.
func timeOps(tr *tracer, name string, n int, clock func() time.Duration, op func(i int) error) (opStats, error) {
	st := opStats{host: make([]float64, n)}
	runtime.GC()
	h := tr.begin(name, "ladder", -1, 100)
	defer tr.end(h)
	var m0, m1 runtime.MemStats
	var v0 time.Duration
	if clock != nil {
		v0 = clock()
	}
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return st, fmt.Errorf("%s op %d: %w", name, i, err)
		}
		st.host[i] = us(time.Since(t0))
	}
	runtime.ReadMemStats(&m1)
	st.allocB = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	if clock != nil {
		st.virtUs = us(clock()-v0) / float64(n)
	}
	return st, nil
}

// onTestbed runs body as the main process of a fresh NEXTGenIO testbed.
func onTestbed(body func(p *sim.Proc, tb *cluster.Testbed) error) error {
	tb := cluster.New(cluster.NEXTGenIO())
	defer tb.Shutdown()
	var err error
	tb.Run(func(p *sim.Proc) { err = body(p, tb) })
	return err
}

// s2Container creates the ladder's pool and an S2 container.
func s2Container(p *sim.Proc, tb *cluster.Testbed) (*daos.Container, error) {
	pool, err := tb.NewClient(tb.Clients[0], 1).CreatePool(p, "daosbench")
	if err != nil {
		return nil, err
	}
	return pool.CreateContainer(p, "ladder", daos.ContProps{Class: placement.S2})
}

// rw is one layer's write and read; op i moves one shape-sized transfer at
// offset i*size.
type rw struct {
	write func(p *sim.Proc, off int64, data []byte) error
	read  func(p *sim.Proc, off, n int64, dst []byte) error
}

// ladderRun collects rung results.
type ladderRun struct {
	tr    *tracer
	ops   int
	stats map[string]opStats
}

// rungs times one layer's write then read rung at every shape, opening a
// fresh object per shape through open.
func (l *ladderRun) rungs(p *sim.Proc, write, read string, clock func() time.Duration, open func(sh shape) (rw, error)) error {
	for _, sh := range shapes {
		h, err := open(sh)
		if err != nil {
			return fmt.Errorf("%s open: %w", write, err)
		}
		data := make([]byte, sh.size)
		for i := range data {
			data[i] = byte(i)
		}
		var dst []byte
		if sh.buf {
			dst = make([]byte, sh.size)
		}
		w, err := timeOps(l.tr, write+"."+sh.name, l.ops, clock, func(i int) error {
			return h.write(p, int64(i)*sh.size, data)
		})
		if err != nil {
			return err
		}
		r, err := timeOps(l.tr, read+"."+sh.name, l.ops, clock, func(i int) error {
			return h.read(p, int64(i)*sh.size, sh.size, dst)
		})
		if err != nil {
			return err
		}
		l.stats[write+"."+sh.name], l.stats[read+"."+sh.name] = w, r
	}
	return nil
}

// warmHeap grows the heap to a 2m rung's footprint once and releases it, so
// the first rung does not pay page faults the later ones skip.
func warmHeap(ops int) {
	ballast := make([][]byte, ops)
	for i := range ballast {
		ballast[i] = make([]byte, 2<<20)
		for j := 0; j < len(ballast[i]); j += 4096 {
			ballast[i][j] = 1
		}
	}
	runtime.KeepAlive(ballast)
}

// ladder times every rung and service probe and returns the per-layer
// metrics, printing the rung table with self times and simulated µs.
func ladder(o opts, tr *tracer, out io.Writer) (map[string]metric, error) {
	l := &ladderRun{tr: tr, ops: 64, stats: map[string]opStats{}}
	if o.tiny {
		l.ops = 4
	}
	warmHeap(l.ops)
	akey := []byte("array_data")
	dkeys := make([][]byte, l.ops)
	for i := range dkeys {
		dkeys[i] = engine.ChunkDkey(int64(i))
	}

	// vos: a VOS container's array akeys, no simulation at all.
	vc := vos.NewContainer("daosbench")
	err := l.rungs(nil, "vos.update", "vos.fetch", nil, func(sh shape) (rw, error) {
		oid := vos.ObjectID{Hi: 1, Lo: uint64(sh.size)}
		return rw{
			write: func(_ *sim.Proc, off int64, data []byte) error {
				i := off / sh.size
				vc.UpdateArray(oid, dkeys[i], akey, vos.Epoch(i+1), 0, data)
				return nil
			},
			read: func(_ *sim.Proc, off, n int64, dst []byte) error {
				return vc.FetchArrayInto(oid, dkeys[off/sh.size], akey, vos.EpochMax, 0, int(n), dst)
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// engine: object RPCs straight to engine 0's first target, plus a
	// 0-byte RPC to a no-op service for the fabric alone.
	err = onTestbed(func(p *sim.Proc, tb *cluster.Testbed) error {
		src, dst := tb.Clients[0], tb.Engines[0].Node()
		call := func(p *sim.Proc, body any) error {
			return tb.Fabric.Call(p, src, dst, engine.ServiceName(0), fabric.Request{Body: body, Size: engine.RequestSize(body)}).Err
		}
		err := l.rungs(p, "engine.update", "engine.fetch", p.Now, func(sh shape) (rw, error) {
			oid := placement.EncodeOID(placement.S2, 0, uint64(sh.size))
			return rw{
				write: func(p *sim.Proc, off int64, data []byte) error {
					return call(p, &engine.UpdateReq{Cont: "daosbench", OID: oid, Writes: []engine.WriteExt{
						{Dkey: dkeys[off/sh.size], Akey: akey, Data: data}}})
				},
				read: func(p *sim.Proc, off, n int64, dst []byte) error {
					return call(p, &engine.FetchReq{Cont: "daosbench", OID: oid, Reads: []engine.ReadExt{
						{Dkey: dkeys[off/sh.size], Akey: akey, Length: int(n), Dst: dst, Discard: dst == nil}}})
				},
			}, nil
		})
		if err != nil {
			return err
		}
		tb.Servers[0].Register("daosbench.noop", func(*sim.Proc, fabric.Request) fabric.Response { return fabric.Response{} })
		st, err := timeOps(tr, "fabric.call", l.ops, p.Now, func(int) error {
			return tb.Fabric.Call(p, src, tb.Servers[0], "daosbench.noop", fabric.Request{}).Err
		})
		l.stats["fabric.call"] = st
		return err
	})
	if err != nil {
		return nil, err
	}

	// The client stack, each layer on its own testbed so none pays for
	// another's retained extents, all run by the one rank of an MPI world
	// (MPI-I/O needs a rank).
	stack := []struct {
		write, read string
		open        func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container, r *mpi.Rank, sh shape) (rw, error)
	}{
		{"daos.write", "daos.read", func(p *sim.Proc, _ *cluster.Testbed, ct *daos.Container, _ *mpi.Rank, _ shape) (rw, error) {
			a, err := ct.OpenArray(p, ct.AllocOID(placement.S2))
			if err != nil {
				return rw{}, err
			}
			return rw{write: a.Write, read: func(p *sim.Proc, off, n int64, dst []byte) error {
				return a.ReadAtInto(p, off, n, 0, dst)
			}}, nil
		}},
		{"dfs.write", "dfs.read", func(p *sim.Proc, _ *cluster.Testbed, ct *daos.Container, _ *mpi.Rank, sh shape) (rw, error) {
			fsys, err := dfs.Mount(p, ct)
			if err != nil {
				return rw{}, err
			}
			f, err := fsys.Create(p, "/ladder-"+sh.name, dfs.CreateOpts{Class: placement.S2})
			if err != nil {
				return rw{}, err
			}
			return rw{write: f.WriteAt, read: f.ReadAtInto}, nil
		}},
		{"dfuse.pwrite", "dfuse.pread", func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container, _ *mpi.Rank, sh shape) (rw, error) {
			fd, err := dfuseFile(p, tb, ct, sh)
			if err != nil {
				return rw{}, err
			}
			return rw{write: func(p *sim.Proc, off int64, data []byte) error {
				_, err := fd.Pwrite(p, off, data)
				return err
			}, read: fd.PreadInto}, nil
		}},
		{"mpiio.write", "mpiio.read", func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container, r *mpi.Rank, sh shape) (rw, error) {
			fd, err := dfuseFile(p, tb, ct, sh)
			if err != nil {
				return rw{}, err
			}
			f := mpiio.FromPOSIX(r, fd, mpiio.DefaultHints(1))
			return rw{write: f.WriteAt, read: f.ReadAtInto}, nil
		}},
		{"hdf5.write", "hdf5.read", func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container, _ *mpi.Rank, sh shape) (rw, error) {
			fd, err := dfuseFile(p, tb, ct, sh)
			if err != nil {
				return rw{}, err
			}
			f, err := hdf5.Create(p, hdf5.NewPosixVFD(fd), hdf5.DefaultCosts())
			if err != nil {
				return rw{}, err
			}
			ds, err := f.CreateDataset(p, "ladder", int64(l.ops)*sh.size, 0)
			if err != nil {
				return rw{}, err
			}
			return rw{write: ds.Write, read: ds.ReadInto}, nil
		}},
	}
	for _, layer := range stack {
		err := onTestbed(func(p *sim.Proc, tb *cluster.Testbed) error {
			ct, err := s2Container(p, tb)
			if err != nil {
				return err
			}
			world := mpi.NewWorld(tb.Sim, tb.Fabric, []*fabric.Node{tb.Clients[0]})
			world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
				err = l.rungs(cp, layer.write, layer.read, cp.Now, func(sh shape) (rw, error) {
					return layer.open(cp, tb, ct, r, sh)
				})
			})
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if err := collectives(l); err != nil {
		return nil, err
	}
	printLadder(out, l)

	m := map[string]metric{}
	for name, st := range l.stats {
		m[name+".host_us"] = metric{st.hostUs(), "us"}
		// The 0-byte RPC allocates nothing, so it has no alloc_b (nor has the
		// cache.get probe below, a memory-tier hit).
		if name != "fabric.call" {
			m[name+".alloc_b"] = metric{st.allocB, "B"}
		}
	}
	if err := probes(o, tr, m, out); err != nil {
		return nil, err
	}
	return m, nil
}

// dfuseFile opens a per-shape S2 file through a dfuse mount of ct.
func dfuseFile(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container, sh shape) (*dfuse.File, error) {
	fsys, err := dfs.Mount(p, ct)
	if err != nil {
		return nil, err
	}
	m := dfuse.NewMount(tb.Sim, tb.Clients[0], fsys, dfuse.DefaultCosts())
	return m.Open(p, "/ladder-"+sh.name, dfuse.O_CREATE|dfuse.O_RDWR, dfs.CreateOpts{Class: placement.S2})
}

// collectives times two-phase collective writes and reads of 64 KiB per
// rank on a 2-node x 8-rank world over one shared S2 file through dfuse,
// the small-verify collective shape. Rank 0 times each collective call,
// which returns once every rank has joined it.
func collectives(l *ladderRun) error {
	const nodes, ppn, size = 2, 8, int64(64 << 10)
	return onTestbed(func(p *sim.Proc, tb *cluster.Testbed) error {
		if _, err := s2Container(p, tb); err != nil {
			return err
		}
		ranks := nodes * ppn
		rankNodes := make([]*fabric.Node, ranks)
		mounts := make([]*dfuse.Mount, ranks)
		for r := range rankNodes {
			rankNodes[r] = tb.Clients[r/ppn]
			if r%ppn != 0 {
				mounts[r] = mounts[r-1] // one dfuse daemon per node
				continue
			}
			pool, err := tb.NewClient(rankNodes[r], uint32(r+2)).Connect(p, "daosbench")
			if err != nil {
				return err
			}
			ct, err := pool.OpenContainer(p, "ladder")
			if err != nil {
				return err
			}
			fsys, err := dfs.Mount(p, ct)
			if err != nil {
				return err
			}
			mounts[r] = dfuse.NewMount(tb.Sim, rankNodes[r], fsys, dfuse.DefaultCosts())
		}
		world := mpi.NewWorld(tb.Sim, tb.Fabric, rankNodes)
		errs := make([]error, ranks)
		world.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
			f, err := mpiio.OpenPOSIX(cp, r, mounts[r.ID()], "/collective", true, dfs.CreateOpts{Class: placement.S2}, mpiio.DefaultHints(ppn))
			if err != nil {
				errs[r.ID()] = err
				return
			}
			data := make([]byte, size)
			dst := make([]byte, size)
			off := func(i int) int64 { return (int64(i)*int64(ranks) + int64(r.ID())) * size }
			write := func(i int) error { return f.WriteAtAll(cp, off(i), data) }
			read := func(i int) error { return f.ReadAtAllInto(cp, off(i), size, dst) }
			if r.ID() != 0 {
				for i := 0; i < l.ops && errs[r.ID()] == nil; i++ {
					errs[r.ID()] = write(i)
				}
				for i := 0; i < l.ops && errs[r.ID()] == nil; i++ {
					errs[r.ID()] = read(i)
				}
				return
			}
			w, err := timeOps(l.tr, "mpiio.write_all.64k", l.ops, cp.Now, write)
			if err == nil {
				l.stats["mpiio.write_all.64k"] = w
				var rd opStats
				rd, err = timeOps(l.tr, "mpiio.read_all.64k", l.ops, cp.Now, read)
				l.stats["mpiio.read_all.64k"] = rd
			}
			errs[0] = err
		})
		return errors.Join(errs...)
	})
}

// printLadder prints each rung's host µs per op, its self time (minus the
// rung below), bytes allocated and simulated µs per op.
func printLadder(out io.Writer, l *ladderRun) {
	fmt.Fprintf(out, "\n# data-path ladder, mean per op over %d ops (self = host minus the rung below)\n", l.ops)
	fmt.Fprintf(out, "%-24s %12s %12s %12s %12s\n", "rung", "host_us", "self_us", "alloc_b", "virt_us")
	row := func(name, below string) {
		st := l.stats[name]
		self := st.hostUs()
		if below != "" {
			self -= l.stats[below].hostUs()
		}
		fmt.Fprintf(out, "%-24s %12.2f %12.2f %12.0f %12.2f\n", name, st.hostUs(), self, st.allocB, st.virtUs)
	}
	for _, sh := range shapes {
		for _, rungs := range [][]string{writeRungs, readRungs} {
			for i, r := range rungs {
				below := ""
				if i > 0 {
					below = rungs[i-1] + "." + sh.name
				}
				row(r+"."+sh.name, below)
			}
		}
	}
	row("mpiio.write_all.64k", "")
	row("mpiio.read_all.64k", "")
	row("fabric.call", "")
}

// probes times the service layers' hot calls: point keying, cache hits and
// stores, journal appends, and a warm 1-point submission over loopback.
func probes(o opts, tr *tracer, m map[string]metric, out io.Writer) error {
	n, slow := 2000, 1000
	if o.tiny {
		n, slow = 20, 20
	}
	dir, err := os.MkdirTemp("", "daosbench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(out, "\n# service probes\n%-24s %8s %12s %12s %12s\n", "probe", "ops", "p50_us", "p99_us", "alloc_b")
	report := func(name string, st opStats, stats ...string) {
		for _, s := range stats {
			switch s {
			case "host_us", "p50_us":
				m[name+"."+s] = metric{median(st.host), "us"}
			case "p99_us":
				m[name+"."+s] = metric{percentile(st.host, 99), "us"}
			case "alloc_b":
				m[name+"."+s] = metric{st.allocB, "B"}
			}
		}
		fmt.Fprintf(out, "%-24s %8d %12.2f %12.2f %12.0f\n", name, len(st.host), median(st.host), percentile(st.host, 99), st.allocB)
	}

	cfgs := quickConfigs(o.seed)
	_, jobs := core.Decompose(cfgs)
	st, _ := timeOps(tr, "core.key", n, nil, func(i int) error {
		jobs[i%len(jobs)].Key()
		return nil
	})
	report("core.key", st, "host_us", "alloc_b")

	c, err := cache.New(cache.Options{Dir: filepath.Join(dir, "cache")})
	if err != nil {
		return err
	}
	entry := cache.Entry{WriteGiBs: 1, ReadGiBs: 2}
	hit := jobs[0].Key()
	c.Put(hit, entry)
	st, err = timeOps(tr, "cache.get", n, nil, func(int) error {
		if _, ok := c.Get(hit); !ok {
			return errors.New("memory-tier miss")
		}
		return nil
	})
	if err != nil {
		return err
	}
	report("cache.get", st, "host_us")
	keys := make([]cache.Key, slow)
	for i := range keys {
		h := cache.NewHasher()
		h.Int(i)
		keys[i] = h.Sum()
	}
	st, _ = timeOps(tr, "cache.put", slow, nil, func(i int) error {
		c.Put(keys[i], entry)
		return nil
	})
	report("cache.put", st, "host_us", "alloc_b")

	store, err := jobstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	defer store.Close()
	if err := store.AppendBatch("probe", cfgs); err != nil {
		return err
	}
	pt := core.Point{Nodes: 4, Ranks: 32, WriteGiBs: 11.25, ReadGiBs: 30.5}
	st, err = timeOps(tr, "jobstore.append_point", slow, nil, func(i int) error {
		return store.AppendPoint("probe", jobstore.PointRecord{Pos: i % len(jobs), Point: pt, CacheHit: true})
	})
	if err != nil {
		return err
	}
	report("jobstore.append_point", st, "p50_us", "p99_us", "alloc_b")
	st, err = timeOps(tr, "jobstore.append_batch", slow/5, nil, func(i int) error {
		return store.AppendBatch(fmt.Sprintf("probe-%d", i), cfgs)
	})
	if err != nil {
		return err
	}
	report("jobstore.append_batch", st, "p50_us", "alloc_b")

	w, err := startWarm(false)
	if err != nil {
		return err
	}
	defer w.close()
	one := onePoint(o.seed)
	cl := studysvc.NewClient(w.addr)
	defer cl.HTTP.CloseIdleConnections()
	if _, err := cl.Submit(context.Background(), one); err != nil {
		return err
	}
	st, err = timeOps(tr, "studysvc.submit", slow, nil, func(int) error {
		_, err := cl.Submit(context.Background(), one)
		return err
	})
	if err != nil {
		return err
	}
	report("studysvc.submit", st, "p50_us", "p99_us", "alloc_b")
	return nil
}
