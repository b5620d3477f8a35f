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
	// EngineNode returns the fabric node hosting engine id and the name of
	// the engine's object service there.
	EngineNode(id int) (*fabric.Node, string)
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

// Object is an open object handle with its layout.
type Object struct {
	cont *Container
	OID  vos.ObjectID
	// Layout is the pool map's layout of OID, shared with every other
	// handle on the object at the same map version: read it, never modify
	// it.
	Layout *placement.Layout
}

// OpenObject opens oid, looking up its layout and charging the per-shard
// open cost (the cost is charged whether or not the pool map had the
// layout cached: every handle resolves its own shards).
func (ct *Container) OpenObject(p *sim.Proc, oid vos.ObjectID) (*Object, error) {
	layout, err := ct.Pool.client.registry.PoolMap().Layout(oid)
	if err != nil {
		return nil, fmt.Errorf("daos: open %v: %w", oid, err)
	}
	p.Sleep(time.Duration(layout.NumShards()) * ct.Pool.client.costs.ShardOpen)
	return &Object{cont: ct, OID: oid, Layout: layout}, nil
}

// refresh moves the handle to the layout on the current pool map (after
// exclusions).
func (o *Object) refresh() error {
	m := o.cont.Pool.client.registry.PoolMap()
	if o.Layout.MapVersion == m.Version {
		return nil
	}
	layout, err := m.Layout(o.OID)
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
	dst, service := c.registry.EngineNode(engineID)
	return c.fab.Call(p, c.node, dst, service, fabric.Request{
		Body: body,
		Size: engine.RequestSize(body),
	})
}

// targetWrites is one update RPC: the writes bound for one target. pos
// holds each write's index in the attempt's batch, parallel to writes, so a
// failed group can be retried without duplicating writes that appear in
// several groups. err is the RPC's outcome.
type targetWrites struct {
	target int
	writes []engine.WriteExt
	pos    []int
	err    error
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
		for gi := range groups {
			g := &groups[gi]
			wg.Go("daos-update", func(cp *sim.Proc) {
				g.err = o.call(cp, g.target, &engine.UpdateReq{
					Cont:   o.cont.UUID,
					OID:    o.OID,
					Target: g.target,
					Writes: g.writes,
				}).Err
			})
			// Sub-RPC issuance is serialized on the client core.
			p.Sleep(c.costs.RPCIssue)
		}
		wg.Wait(p)
		var retry []bool
		nRetry := 0
		for _, g := range groups {
			if g.err == nil {
				continue
			}
			if !errors.Is(g.err, engine.ErrEngineDown) || attempt >= maxFailover {
				return fmt.Errorf("daos: update: %w", g.err)
			}
			if retry == nil {
				retry = make([]bool, len(remaining))
			}
			for _, pos := range g.pos {
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

// groupWrites buckets writes per (shard target x replica), groups in order
// of first appearance. A group's first write is a capped subslice of the
// batch, so a write is copied only when a second one joins its group.
func (o *Object) groupWrites(writes []engine.WriteExt) []targetWrites {
	pos := make([]int, len(writes))
	// Every write goes to each replica of one shard, so no more than this
	// many groups form.
	groups := make([]targetWrites, 0, min(len(writes), o.Layout.NumShards())*o.Layout.Class.Replicas)
	for i, w := range writes {
		pos[i] = i
		for _, tgt := range o.Layout.Shards[o.shardForDkey(w.Dkey)] {
			gi := 0
			for gi < len(groups) && groups[gi].target != tgt {
				gi++
			}
			if gi == len(groups) {
				groups = append(groups, targetWrites{target: tgt, writes: writes[i : i+1 : i+1], pos: pos[i : i+1 : i+1]})
				continue
			}
			groups[gi].writes = append(groups[gi].writes, w)
			groups[gi].pos = append(groups[gi].pos, i)
		}
	}
	return groups
}

// fetchGroup is one fetch RPC: the reads bound for one shard, with their
// positions in the caller's batch, and the shard's replica targets as the
// layout named them when the group formed. err is the RPC's outcome.
type fetchGroup struct {
	shard    int
	replicas []int
	reads    []engine.ReadExt
	pos      []int
	err      error
}

// Fetch reads a batch of extents at the given epoch (0 = latest), returning
// data parallel to reads: a single value's bytes, or an array read's Dst,
// which the engine filled in place (nil for a length-only read with a nil
// Dst). An absent value or extent returns nil. Failed targets fall back to
// the next replica within the RPC, and shards whose every replica is down
// fail over: the layout is recomputed against the current pool map and
// only the failed reads are reissued. Extents whose data was lost with a
// killed engine read as absent (nil) from the fallback target, like any
// unwritten region.
func (o *Object) Fetch(p *sim.Proc, reads []engine.ReadExt, epoch vos.Epoch) ([][]byte, error) {
	c := o.cont.Pool.client
	out := make([][]byte, len(reads))
	batch, pos := reads, make([]int, len(reads))
	for i := range pos {
		pos[i] = i
	}
	for attempt := 0; ; attempt++ {
		if err := o.refresh(); err != nil {
			return nil, fmt.Errorf("daos: fetch: %w", err)
		}
		groups := o.groupReads(batch, pos)
		wg := sim.NewWaitGroup(c.sim)
		for gi := range groups {
			g := &groups[gi]
			wg.Go("daos-fetch", func(cp *sim.Proc) {
				var resp fabric.Response
				for _, tgt := range g.replicas {
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
					g.err = resp.Err
					return
				}
				fr := resp.Body.(*engine.FetchResp)
				for j, at := range g.pos {
					out[at] = fr.Data[j]
				}
			})
			p.Sleep(c.costs.RPCIssue)
		}
		wg.Wait(p)
		var nextBatch []engine.ReadExt
		var nextPos []int
		for _, g := range groups {
			if g.err == nil {
				continue
			}
			if !errors.Is(g.err, engine.ErrEngineDown) || attempt >= maxFailover {
				return nil, fmt.Errorf("daos: fetch: %w", g.err)
			}
			nextBatch = append(nextBatch, g.reads...)
			nextPos = append(nextPos, g.pos...)
		}
		if len(nextPos) == 0 {
			return out, nil
		}
		batch, pos = nextBatch, nextPos
		p.Sleep(failoverBackoff)
	}
}

// groupReads buckets reads per shard, groups in order of first appearance;
// pos holds each read's position in the caller's batch. A group's first
// read is a capped subslice of reads, so a read is copied only when a
// second one joins its group.
func (o *Object) groupReads(reads []engine.ReadExt, pos []int) []fetchGroup {
	groups := make([]fetchGroup, 0, min(len(reads), o.Layout.NumShards()))
	for i, rd := range reads {
		shard := o.shardForDkey(rd.Dkey)
		gi := 0
		for gi < len(groups) && groups[gi].shard != shard {
			gi++
		}
		if gi == len(groups) {
			groups = append(groups, fetchGroup{shard: shard, replicas: o.Layout.Shards[shard],
				reads: reads[i : i+1 : i+1], pos: pos[i : i+1 : i+1]})
			continue
		}
		groups[gi].reads = append(groups[gi].reads, rd)
		groups[gi].pos = append(groups[gi].pos, pos[i])
	}
	return groups
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
