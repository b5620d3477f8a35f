// Package cluster assembles the full simulated testbed in the shape of the
// NEXTGenIO system the paper benchmarks: dual-socket server nodes with one
// DAOS engine per socket (six 256 GiB Optane DCPMMs each, AppDirect
// interleaved), a dual-rail Omni-Path-class fabric, a Raft-replicated pool
// service on the first engines, and a set of client nodes.
package cluster

import (
	"fmt"
	"time"

	"daosim/internal/daos"
	"daosim/internal/engine"
	"daosim/internal/fabric"
	"daosim/internal/media"
	"daosim/internal/placement"
	"daosim/internal/sim"
	"daosim/internal/svc"
)

// Config sizes the testbed.
type Config struct {
	// ServerNodes is the number of storage server machines.
	ServerNodes int
	// EnginesPerNode is the DAOS engine count per server (one per socket).
	EnginesPerNode int
	// TargetsPerEngine is the VOS target count per engine.
	TargetsPerEngine int
	// DCPMMModules is the Optane module count per engine's interleave set.
	DCPMMModules int
	// ClientNodes is the number of compute nodes available to benchmarks.
	ClientNodes int
	// ServiceReplicas is the pool service replication factor.
	ServiceReplicas int
	// Fabric configures the interconnect.
	Fabric fabric.Config
	// EngineCosts is the server software cost model.
	EngineCosts engine.Costs
	// Seed drives all randomized choices.
	Seed uint64
}

// NEXTGenIO returns the paper's testbed: 8 servers x 2 engines, 16 client
// nodes.
func NEXTGenIO() Config {
	return Config{
		ServerNodes:      8,
		EnginesPerNode:   2,
		TargetsPerEngine: 8,
		DCPMMModules:     6,
		ClientNodes:      16,
		ServiceReplicas:  3,
		Fabric:           fabric.DefaultConfig(),
		EngineCosts:      engine.DefaultCosts(),
		Seed:             2023,
	}
}

// Small returns a reduced testbed for unit tests (2 servers x 2 engines,
// 2 clients).
func Small() Config {
	cfg := NEXTGenIO()
	cfg.ServerNodes = 2
	cfg.ClientNodes = 2
	cfg.TargetsPerEngine = 4
	return cfg
}

// Testbed is a running cluster.
type Testbed struct {
	Cfg     Config
	Sim     *sim.Sim
	Fabric  *fabric.Fabric
	Servers []*fabric.Node
	Engines []*engine.Engine
	Clients []*fabric.Node
	Service *svc.Service

	pmap *placement.PoolMap
}

// New builds and boots a testbed on a fresh simulator, waiting until the
// pool service is ready.
func New(cfg Config) *Testbed {
	return NewOn(sim.New(cfg.Seed), cfg)
}

// NewOn builds and boots a testbed on an existing simulator — typically one
// recycled across points through a sim.Arena, already seeded by the caller.
// The testbed's behavior is byte-identical on a fresh and a recycled
// simulator; that is the Arena's contract.
func NewOn(s *sim.Sim, cfg Config) *Testbed {
	f := fabric.New(s, cfg.Fabric)
	tb := &Testbed{Cfg: cfg, Sim: s, Fabric: f}

	numEngines := cfg.ServerNodes * cfg.EnginesPerNode
	tb.pmap = placement.NewPoolMap(numEngines, cfg.TargetsPerEngine, cfg.EnginesPerNode)

	for n := 0; n < cfg.ServerNodes; n++ {
		node := f.AddNode(fmt.Sprintf("server%02d", n))
		tb.Servers = append(tb.Servers, node)
		for e := 0; e < cfg.EnginesPerNode; e++ {
			id := n*cfg.EnginesPerNode + e
			eng := engine.New(s, node, engine.Config{
				ID:      id,
				Targets: cfg.TargetsPerEngine,
				Media:   media.DCPMMInterleaved(fmt.Sprintf("e%d/scm", id), cfg.DCPMMModules),
				Costs:   cfg.EngineCosts,
			})
			tb.Engines = append(tb.Engines, eng)
		}
	}
	for c := 0; c < cfg.ClientNodes; c++ {
		tb.Clients = append(tb.Clients, f.AddNode(fmt.Sprintf("client%02d", c)))
	}

	// The pool service replicas live on the first ServiceReplicas server
	// nodes, as DAOS hosts its management service on engines.
	replicas := cfg.ServiceReplicas
	if replicas > cfg.ServerNodes {
		replicas = cfg.ServerNodes
	}
	tb.Service = svc.Start(s, f, tb.Servers[:replicas])
	if !tb.Service.WaitReady(30 * time.Second) {
		panic("cluster: pool service failed to elect a leader")
	}
	return tb
}

// --- daos.Registry implementation ---

// EngineNode returns the fabric node hosting engine id and the name of the
// engine's object service there.
func (tb *Testbed) EngineNode(id int) (*fabric.Node, string) {
	e := tb.Engines[id]
	return e.Node(), e.Service()
}

// PoolMap returns the shared cluster pool map.
func (tb *Testbed) PoolMap() *placement.PoolMap { return tb.pmap }

// TargetsPerEngine returns the per-engine target count.
func (tb *Testbed) TargetsPerEngine() int { return tb.Cfg.TargetsPerEngine }

var _ daos.Registry = (*Testbed)(nil)

// NewClient creates a DAOS client on the given client node. id must be
// unique per client (use the rank).
func (tb *Testbed) NewClient(node *fabric.Node, id uint32) *daos.Client {
	poolClient := svc.NewClient(tb.Service, node)
	return daos.NewClient(tb.Sim, tb.Fabric, node, tb, poolClient, id)
}

// ClientNode returns client node i (wrapping if i exceeds the node count,
// so ranks map round-robin onto nodes).
func (tb *Testbed) ClientNode(i int) *fabric.Node {
	return tb.Clients[i%len(tb.Clients)]
}

// ExcludeEngine fails an engine: RPCs error and the pool map excludes its
// targets, so clients recompute layouts (failure injection).
func (tb *Testbed) ExcludeEngine(id int) {
	tb.Engines[id].SetDown(true)
	tb.pmap.ExcludeEngine(id)
}

// ReintegrateEngine brings an engine back.
func (tb *Testbed) ReintegrateEngine(id int) {
	tb.Engines[id].SetDown(false)
	for _, t := range tb.pmap.Targets {
		if t.Engine == id {
			tb.pmap.SetTargetState(t.ID, true)
		}
	}
}

// Run executes body as the simulation's main process and drives virtual
// time until it finishes, then quiesces the pool service and drains
// remaining events. It returns the virtual time consumed by body.
func (tb *Testbed) Run(body func(p *sim.Proc)) time.Duration {
	start := tb.Sim.Now()
	done := false
	var doneAt time.Duration
	tb.Sim.Spawn("main", func(p *sim.Proc) {
		body(p)
		done = true
		doneAt = p.Now()
	})
	for !done {
		if tb.Sim.RunUntil(tb.Sim.Now() + time.Second) {
			break // queue drained; if body is still blocked, that is a bug
		}
	}
	if !done {
		panic("cluster: main process never completed")
	}
	return doneAt - start
}

// Shutdown stops the pool service and drains every outstanding event so the
// simulator finishes cleanly.
func (tb *Testbed) Shutdown() {
	tb.Service.Stop()
	tb.Sim.Run()
}

// TotalMediaWrite returns bytes written across all engine devices.
func (tb *Testbed) TotalMediaWrite() int64 {
	var total int64
	for _, e := range tb.Engines {
		total += e.Device().WrBytes
	}
	return total
}

// TotalMediaRead returns bytes read across all engine devices.
func (tb *Testbed) TotalMediaRead() int64 {
	var total int64
	for _, e := range tb.Engines {
		total += e.Device().ReadBytes
	}
	return total
}
