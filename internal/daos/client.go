// Package daos implements the client library (libdaos): pool connection,
// container handles, object open with class-based placement, the key-value
// and byte-array object APIs, and an event queue for asynchronous I/O.
//
// Client-side timing model:
//
//   - Each sub-RPC pays RPCIssue of client CPU serially before its network
//     transfer starts (OFI context progression is single-threaded per rank).
//     Wide object classes fan one application I/O out into many sub-RPCs
//     and therefore pay this cost repeatedly.
//   - Opening an object charges ShardOpen per shard in its layout (handle
//     and address resolution per target). An SX object on a 128-target pool
//     pays 128x this, the client-side reason SX underperforms at low client
//     counts in the paper's Figure 1.
package daos

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"daosim/internal/engine"
	"daosim/internal/fabric"
	"daosim/internal/placement"
	"daosim/internal/sim"
	"daosim/internal/svc"
	"daosim/internal/vos"
)

// Costs collects client-side software path constants.
type Costs struct {
	// RPCIssue is the per-sub-RPC client CPU charge (serialized).
	RPCIssue time.Duration
	// ShardOpen is the per-shard charge at object open.
	ShardOpen time.Duration
}

// DefaultCosts returns the calibrated client cost model.
func DefaultCosts() Costs {
	return Costs{
		RPCIssue:  15 * time.Microsecond,
		ShardOpen: 50 * time.Microsecond,
	}
}

// Registry resolves cluster topology for the client: which fabric node
// hosts which engine, and the shared pool map.
type Registry interface {
	// EngineNode returns the fabric node hosting engine id.
	EngineNode(id int) *fabric.Node
	// PoolMap returns the cluster's (shared, versioned) pool map.
	PoolMap() *placement.PoolMap
	// TargetsPerEngine returns the target count per engine.
	TargetsPerEngine() int
}

// Client is one application process's DAOS client (one per rank).
type Client struct {
	sim      *sim.Sim
	fab      *fabric.Fabric
	node     *fabric.Node
	registry Registry
	poolSvc  *svc.Client
	costs    Costs
	// id makes OIDs allocated by this client unique cluster-wide.
	id     uint32
	oidSeq uint32
}

// NewClient creates a client bound to a fabric node. id must be unique per
// client (e.g. the MPI rank).
func NewClient(s *sim.Sim, f *fabric.Fabric, node *fabric.Node, reg Registry, pool *svc.Client, id uint32) *Client {
	return &Client{
		sim:      s,
		fab:      f,
		node:     node,
		registry: reg,
		poolSvc:  pool,
		costs:    DefaultCosts(),
		id:       id,
	}
}

// SetCosts overrides the client cost model (ablations).
func (c *Client) SetCosts(costs Costs) { c.costs = costs }

// Node returns the client's fabric node.
func (c *Client) Node() *fabric.Node { return c.node }

// Pool is an open pool connection.
type Pool struct {
	client *Client
	Info   *svc.PoolInfo
}

// Connect opens the named pool via the pool service.
func (c *Client) Connect(p *sim.Proc, label string) (*Pool, error) {
	res, err := c.poolSvc.Execute(p, svc.Command{Op: svc.OpQueryPool, Pool: label})
	if err != nil {
		return nil, fmt.Errorf("daos: pool connect %q: %w", label, err)
	}
	return &Pool{client: c, Info: res.Pool}, nil
}

// CreatePool creates a pool spanning every engine in the pool map.
func (c *Client) CreatePool(p *sim.Proc, label string) (*Pool, error) {
	m := c.registry.PoolMap()
	engines := make([]int, m.NumEngines())
	for i := range engines {
		engines[i] = i
	}
	res, err := c.poolSvc.Execute(p, svc.Command{Op: svc.OpCreatePool, Pool: label, Targets: engines})
	if err != nil {
		return nil, fmt.Errorf("daos: pool create %q: %w", label, err)
	}
	return &Pool{client: c, Info: res.Pool}, nil
}

// ContProps are container creation properties.
type ContProps struct {
	// Class is the default object class for objects in this container.
	Class placement.ClassID
	// ChunkSize is the default array/file chunk size in bytes.
	ChunkSize int64
}

// DefaultChunkSize matches DFS's 1 MiB default.
const DefaultChunkSize = int64(1) << 20

// Container is an open container handle.
type Container struct {
	Pool  *Pool
	UUID  string
	Label string
	Props ContProps
}

// CreateContainer creates and opens a container.
func (pl *Pool) CreateContainer(p *sim.Proc, label string, props ContProps) (*Container, error) {
	if props.ChunkSize <= 0 {
		props.ChunkSize = DefaultChunkSize
	}
	if props.Class == placement.SAny {
		props.Class = placement.SX
	}
	res, err := pl.client.poolSvc.Execute(p, svc.Command{
		Op: svc.OpCreateCont, Pool: pl.Info.Label, Cont: label,
		Props: map[string]string{
			"oclass": strconv.Itoa(int(props.Class)),
			"chunk":  strconv.FormatInt(props.ChunkSize, 10),
		},
	})
	if err != nil {
		return nil, fmt.Errorf("daos: container create %q: %w", label, err)
	}
	return &Container{Pool: pl, UUID: res.Cont.UUID, Label: label, Props: props}, nil
}

// OpenContainer opens an existing container.
func (pl *Pool) OpenContainer(p *sim.Proc, label string) (*Container, error) {
	res, err := pl.client.poolSvc.Execute(p, svc.Command{Op: svc.OpQueryPool, Pool: pl.Info.Label})
	if err != nil {
		return nil, err
	}
	ci, ok := res.Pool.Conts[label]
	if !ok {
		return nil, fmt.Errorf("daos: container %q: %w", label, svc.ErrNotFound)
	}
	props := ContProps{ChunkSize: DefaultChunkSize, Class: placement.SX}
	if v, err := strconv.Atoi(ci.Props["oclass"]); err == nil {
		props.Class = placement.ClassID(v)
	}
	if v, err := strconv.ParseInt(ci.Props["chunk"], 10, 64); err == nil {
		props.ChunkSize = v
	}
	return &Container{Pool: pl, UUID: ci.UUID, Label: label, Props: props}, nil
}

// AllocOID mints a fresh ObjectID of the given class (client-unique range,
// as DAOS allocates OID ranges per container handle). Lo values below 2^32
// are reserved for well-known objects (the DFS root and superblock).
func (ct *Container) AllocOID(class placement.ClassID) vos.ObjectID {
	if class == placement.SAny {
		class = ct.Props.Class
	}
	c := ct.Pool.client
	c.oidSeq++
	lo := (uint64(c.id)+1)<<32 | uint64(c.oidSeq)
	return placement.EncodeOID(class, 0, lo)
}

// Errors returned by object operations.
var (
	// ErrStaleLayout reports a layout computed against an outdated pool map.
	ErrStaleLayout = errors.New("daos: stale layout")
)

// Object is an open object handle with its computed layout.
type Object struct {
	cont   *Container
	OID    vos.ObjectID
	Layout *placement.Layout
}

// OpenObject opens oid, computing its layout and charging the per-shard
// open cost.
func (ct *Container) OpenObject(p *sim.Proc, oid vos.ObjectID) (*Object, error) {
	m := ct.Pool.client.registry.PoolMap()
	layout, err := placement.Compute(oid, m)
	if err != nil {
		return nil, fmt.Errorf("daos: open %v: %w", oid, err)
	}
	p.Sleep(time.Duration(layout.NumShards()) * ct.Pool.client.costs.ShardOpen)
	return &Object{cont: ct, OID: oid, Layout: layout}, nil
}

// refresh recomputes the layout against the current pool map (after
// exclusions).
func (o *Object) refresh() error {
	m := o.cont.Pool.client.registry.PoolMap()
	if o.Layout.MapVersion == m.Version {
		return nil
	}
	layout, err := placement.Compute(o.OID, m)
	if err != nil {
		return err
	}
	o.Layout = layout
	return nil
}

// shardForDkey maps a dkey hash to a shard index. Chunk dkeys distribute
// round-robin (DAOS array striping); other dkeys hash.
func (o *Object) shardForDkey(dk []byte) int {
	n := o.Layout.NumShards()
	if idx, ok := engine.DecodeChunkDkey(dk); ok {
		return int(idx % int64(n))
	}
	var h uint64 = 14695981039346656037
	for _, b := range dk {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// call issues one object RPC to the engine owning a global target. The
// caller is responsible for charging RPCIssue (fan-out paths serialize the
// charge on the parent process).
func (o *Object) call(p *sim.Proc, targetID int, body interface{}) fabric.Response {
	c := o.cont.Pool.client
	engineID := targetID / c.registry.TargetsPerEngine()
	dst := c.registry.EngineNode(engineID)
	return c.fab.Call(p, c.node, dst, engine.ServiceName(engineID), fabric.Request{
		Body: body,
		Size: engine.RequestSize(body),
	})
}

// targetWrites groups writes by destination target. pos holds each write's
// index in the caller's batch, parallel to writes, so a failed group can be
// retried without duplicating writes that appear in several groups.
type targetWrites struct {
	target int
	writes []engine.WriteExt
	pos    []int
}

// Failover bounds for I/O against a freshly killed engine: an RPC that
// fails with engine.ErrEngineDown is retried against a layout recomputed
// from the bumped pool map, after a short virtual backoff (the exclusion
// lands at the same virtual instant as the failure; the backoff orders the
// refresh after it). Both constants are virtual time and fixed, so failover
// is as deterministic as the fault that triggered it.
const (
	maxFailover     = 5
	failoverBackoff = time.Millisecond
)

// Update writes a batch of extents, fanning out one RPC per (target,
// replica) in parallel and waiting for all to complete. Writes that land on
// a killed engine fail over: the layout is recomputed against the current
// pool map and only the failed writes are reissued (a write replicated
// across groups may be re-sent to a surviving replica that already holds
// it, exactly as a real client restarting an update at a new map version
// would). Array extents keep each write's Data: do not modify it after the
// call.
func (o *Object) Update(p *sim.Proc, writes []engine.WriteExt) error {
	c := o.cont.Pool.client
	remaining := writes
	for attempt := 0; ; attempt++ {
		if err := o.refresh(); err != nil {
			return fmt.Errorf("daos: update: %w", err)
		}
		groups := o.groupWrites(remaining)
		wg := sim.NewWaitGroup(c.sim)
		groupErrs := make([]error, len(groups))
		for gi := range groups {
			gi, g := gi, &groups[gi]
			wg.Go("daos-update", func(cp *sim.Proc) {
				resp := o.call(cp, g.target, &engine.UpdateReq{
					Cont:   o.cont.UUID,
					OID:    o.OID,
					Target: g.target,
					Writes: g.writes,
				})
				groupErrs[gi] = resp.Err
			})
			// Sub-RPC issuance is serialized on the client core.
			p.Sleep(c.costs.RPCIssue)
		}
		wg.Wait(p)
		retry := make([]bool, len(remaining))
		nRetry := 0
		for gi, err := range groupErrs {
			if err == nil {
				continue
			}
			if !errors.Is(err, engine.ErrEngineDown) || attempt >= maxFailover {
				return fmt.Errorf("daos: update: %w", err)
			}
			for _, pos := range groups[gi].pos {
				if !retry[pos] {
					retry[pos] = true
					nRetry++
				}
			}
		}
		if nRetry == 0 {
			return nil
		}
		next := make([]engine.WriteExt, 0, nRetry)
		for i, w := range remaining {
			if retry[i] {
				next = append(next, w)
			}
		}
		remaining = next
		p.Sleep(failoverBackoff)
	}
}

// groupWrites buckets writes per (shard target x replica).
func (o *Object) groupWrites(writes []engine.WriteExt) []targetWrites {
	byTarget := make(map[int]*targetWrites)
	var order []int
	for i, w := range writes {
		shard := o.shardForDkey(w.Dkey)
		for _, tgt := range o.Layout.Shards[shard] {
			g, ok := byTarget[tgt]
			if !ok {
				g = &targetWrites{target: tgt}
				byTarget[tgt] = g
				order = append(order, tgt)
			}
			g.writes = append(g.writes, w)
			g.pos = append(g.pos, i)
		}
	}
	out := make([]targetWrites, 0, len(order))
	for _, tgt := range order {
		out = append(out, *byTarget[tgt])
	}
	return out
}

// fetchGroup is one fetch RPC's reads with their positions in the caller's
// batch.
type fetchGroup struct {
	target  int
	replica []int // fallback replica targets
	reads   []engine.ReadExt
	pos     []int
}

// Fetch reads a batch of extents at the given epoch (0 = latest), returning
// data parallel to reads. Failed targets fall back to the next replica
// within the RPC, and shards whose every replica is down fail over: the
// layout is recomputed against the current pool map and only the failed
// reads are reissued. Extents whose data was lost with a killed engine
// read as holes (nil) from the fallback target, like any unwritten region.
func (o *Object) Fetch(p *sim.Proc, reads []engine.ReadExt, epoch vos.Epoch) ([][]byte, error) {
	c := o.cont.Pool.client
	out := make([][]byte, len(reads))
	remaining := make([]int, len(reads))
	for i := range reads {
		remaining[i] = i
	}
	for attempt := 0; ; attempt++ {
		if err := o.refresh(); err != nil {
			return nil, fmt.Errorf("daos: fetch: %w", err)
		}
		byShard := make(map[int]*fetchGroup)
		var order []int
		for _, pos := range remaining {
			rd := reads[pos]
			shard := o.shardForDkey(rd.Dkey)
			g, ok := byShard[shard]
			if !ok {
				g = &fetchGroup{
					target:  o.Layout.Shards[shard][0],
					replica: o.Layout.Shards[shard],
				}
				byShard[shard] = g
				order = append(order, shard)
			}
			g.reads = append(g.reads, rd)
			g.pos = append(g.pos, pos)
		}
		wg := sim.NewWaitGroup(c.sim)
		groupErrs := make([]error, len(order))
		for oi, shard := range order {
			oi, g := oi, byShard[shard]
			wg.Go("daos-fetch", func(cp *sim.Proc) {
				var resp fabric.Response
				for _, tgt := range g.replica {
					resp = o.call(cp, tgt, &engine.FetchReq{
						Cont:   o.cont.UUID,
						OID:    o.OID,
						Target: tgt,
						Reads:  g.reads,
						Epoch:  epoch,
					})
					if resp.Err == nil || !errors.Is(resp.Err, engine.ErrEngineDown) {
						break
					}
				}
				if resp.Err != nil {
					groupErrs[oi] = resp.Err
					return
				}
				fr := resp.Body.(*engine.FetchResp)
				for j, pos := range g.pos {
					out[pos] = fr.Data[j]
				}
			})
			p.Sleep(c.costs.RPCIssue)
		}
		wg.Wait(p)
		var next []int
		for oi, err := range groupErrs {
			if err == nil {
				continue
			}
			if !errors.Is(err, engine.ErrEngineDown) || attempt >= maxFailover {
				return nil, fmt.Errorf("daos: fetch: %w", err)
			}
			next = append(next, byShard[order[oi]].pos...)
		}
		if len(next) == 0 {
			return out, nil
		}
		remaining = next
		p.Sleep(failoverBackoff)
	}
}

// Punch deletes the object on every shard.
func (o *Object) Punch(p *sim.Proc) error {
	if err := o.refresh(); err != nil {
		return err
	}
	c := o.cont.Pool.client
	wg := sim.NewWaitGroup(c.sim)
	var firstErr error
	seen := map[int]bool{}
	for _, sh := range o.Layout.Shards {
		for _, tgt := range sh {
			if seen[tgt] {
				continue
			}
			seen[tgt] = true
			tgt := tgt
			wg.Go("daos-punch", func(cp *sim.Proc) {
				resp := o.call(cp, tgt, &engine.PunchReq{Cont: o.cont.UUID, OID: o.OID, Target: tgt})
				if resp.Err != nil && firstErr == nil {
					firstErr = resp.Err
				}
			})
			p.Sleep(c.costs.RPCIssue)
		}
	}
	wg.Wait(p)
	return firstErr
}

// ListDkeys enumerates dkeys across all shards, merged and sorted.
func (o *Object) ListDkeys(p *sim.Proc) ([][]byte, error) {
	if err := o.refresh(); err != nil {
		return nil, err
	}
	c := o.cont.Pool.client
	var all [][]byte
	for _, sh := range o.Layout.Shards {
		p.Sleep(c.costs.RPCIssue)
		resp := o.call(p, sh[0], &engine.ListReq{Cont: o.cont.UUID, OID: o.OID, Target: sh[0]})
		if resp.Err != nil {
			return nil, resp.Err
		}
		all = append(all, resp.Body.(*engine.ListResp).Dkeys...)
	}
	sortByteSlices(all)
	return all, nil
}

func sortByteSlices(s [][]byte) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && string(s[j]) < string(s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
