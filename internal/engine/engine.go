// Package engine implements the DAOS I/O engine: the server process that
// owns a set of VOS targets backed by an interleaved DCPMM region and serves
// object RPCs over the fabric.
//
// Timing model (the knobs that shape the paper's curves):
//
//   - Each target has one service xstream (a sim.Resource of capacity 1, as
//     in DAOS's per-target main xstream). An RPC holds the xstream for its
//     CPU cost and its media transfer, so a hot target queues requests —
//     this is what makes object-class load imbalance visible.
//   - Every RPC pays RPCCost of xstream CPU, plus PerExtentCost for each
//     extent it touches in the VOS trees.
//   - The first write that creates an object shard on a target pays
//     FirstTouchCost (VOS object + dkey tree initialisation on persistent
//     memory). Wide classes (SX) create a shard on every target per file,
//     which is the dominant penalty for SX at low client counts.
//   - Media bytes are charged to the engine's DCPMM device, fair-shared
//     across that engine's targets, with DCPMM's read/write asymmetry.
package engine

import (
	"errors"
	"fmt"
	"time"

	"daosim/internal/fabric"
	"daosim/internal/media"
	"daosim/internal/sim"
	"daosim/internal/vos"
)

// Costs collects the engine-side software path constants.
type Costs struct {
	// RPCCost is the xstream CPU charge per RPC (request parsing, bulk
	// handling, reply).
	RPCCost time.Duration
	// PerExtentCost is the VOS tree charge per extent read or written.
	PerExtentCost time.Duration
	// FirstTouchCost is the charge for materialising an object shard
	// (object table insert, dkey tree allocation) on first write.
	FirstTouchCost time.Duration
}

// DefaultCosts returns the calibrated engine cost model.
func DefaultCosts() Costs {
	return Costs{
		RPCCost:        20 * time.Microsecond,
		PerExtentCost:  10 * time.Microsecond,
		FirstTouchCost: 120 * time.Microsecond,
	}
}

// Config describes one engine.
type Config struct {
	// ID is the global engine index.
	ID int
	// Targets is the number of VOS targets (per-engine service threads).
	Targets int
	// Media is the engine's storage device parameters (one AppDirect
	// interleave set per engine/socket on NEXTGenIO).
	Media media.Params
	Costs Costs
}

// Engine is a running DAOS I/O engine.
type Engine struct {
	cfg     Config
	sim     *sim.Sim
	node    *fabric.Node
	device  *media.Device
	targets []*target
	epoch   vos.Epoch
	down    bool
	// service is ServiceName(cfg.ID), built once: every object RPC to the
	// engine names it.
	service string

	// RPCs counts object RPCs served.
	RPCs int64
	// clientWrBytes and clientRdBytes count client payload bytes moved by
	// the update and fetch handlers. Rebuild traffic writes to devices
	// directly and never increments them, so the pair isolates client
	// bandwidth for degraded-window measurement.
	clientWrBytes int64
	clientRdBytes int64
}

// target is one VOS target: an xstream plus per-container VOS stores.
type target struct {
	xstream *sim.Resource
	conts   map[string]*vos.Container
}

// ServiceName returns the fabric service name of engine id's object service.
func ServiceName(id int) string { return fmt.Sprintf("obj@e%d", id) }

// New creates an engine, attaches its device, and registers its RPC service
// on the given fabric node (engines on the same server node share the NIC).
func New(s *sim.Sim, node *fabric.Node, cfg Config) *Engine {
	if cfg.Targets <= 0 {
		panic("engine: target count must be positive")
	}
	e := &Engine{
		cfg:     cfg,
		sim:     s,
		node:    node,
		device:  media.NewDevice(s, cfg.Media),
		service: ServiceName(cfg.ID),
	}
	for t := 0; t < cfg.Targets; t++ {
		e.targets = append(e.targets, &target{
			xstream: sim.NewResource(s, fmt.Sprintf("e%d/xs%d", cfg.ID, t), 1),
			conts:   make(map[string]*vos.Container),
		})
	}
	node.Register(e.service, e.handle)
	return e
}

// ID returns the engine's global index.
func (e *Engine) ID() int { return e.cfg.ID }

// Node returns the fabric node hosting this engine.
func (e *Engine) Node() *fabric.Node { return e.node }

// Service returns the name of the engine's object service on its node,
// ServiceName(ID()).
func (e *Engine) Service() string { return e.service }

// Device returns the engine's SCM media device (for reporting).
func (e *Engine) Device() *media.Device { return e.device }

// SetDown marks the engine failed (failure injection); RPCs return
// ErrEngineDown until it is cleared.
func (e *Engine) SetDown(down bool) { e.down = down }

// IsDown reports whether the engine is currently failed.
func (e *Engine) IsDown() bool { return e.down }

// ClientBytes returns the client payload bytes (update + fetch) this
// engine's RPC handlers have served.
func (e *Engine) ClientBytes() int64 { return e.clientWrBytes + e.clientRdBytes }

// ErrEngineDown reports an RPC against a failed engine.
var ErrEngineDown = errors.New("engine: down")

// nextEpoch returns a monotonic epoch derived from virtual time, mirroring
// DAOS's HLC timestamps.
func (e *Engine) nextEpoch() vos.Epoch {
	now := vos.Epoch(e.sim.Now().Nanoseconds())
	if now <= e.epoch {
		now = e.epoch + 1
	}
	e.epoch = now
	return now
}

// localTarget maps a global target ID to the engine's target.
func (e *Engine) localTarget(global int) (*target, error) {
	local := global - e.cfg.ID*e.cfg.Targets
	if local < 0 || local >= len(e.targets) {
		return nil, fmt.Errorf("engine %d: target %d not local", e.cfg.ID, global)
	}
	return e.targets[local], nil
}

// cont returns (creating on write paths) the VOS container on a target.
func (t *target) cont(uuid string, create bool) *vos.Container {
	c, ok := t.conts[uuid]
	if !ok && create {
		c = vos.NewContainer(uuid)
		t.conts[uuid] = c
	}
	return c
}

// --- wire types ---

// WriteExt is one extent (or single value) in an update RPC.
type WriteExt struct {
	Dkey, Akey []byte
	Offset     int64
	// Data is the extent's bytes. An array extent keeps Data itself, not
	// a copy: do not modify it after the update.
	Data []byte
	// Len is the length of a length-only array write, one whose Data is
	// nil: the extent records its range and epoch but no content. With
	// Data set, the length is len(Data) and Len is ignored.
	Len    int64
	Single bool
}

// length returns the bytes the extent writes: len(Data), or Len when Data
// is nil. Wire size, device bytes and the stored extent all use it.
func (w *WriteExt) length() int64 {
	if w.Data != nil {
		return int64(len(w.Data))
	}
	return w.Len
}

// ReadExt is one extent (or single value) in a fetch RPC.
//
// An array read lands in Dst (the engine handler runs in the calling
// process, so a destination span is addressable directly — the simulation
// analogue of an RDMA bulk landing in a registered client buffer): the
// engine fills it in place and the response aliases it. A nil Dst performs
// the identical visibility walk and charges identical time but moves no
// bytes (reads whose content nobody observes). Dst does not contribute to
// the request's wire size: it describes where data lands, not what is sent.
// A Dst may take only part of the extent, at At: the engine still reads and
// charges all Length bytes, and materializes only those the caller wants.
type ReadExt struct {
	Dkey, Akey []byte
	Offset     int64
	Length     int
	Single     bool
	// Discard is ignored.
	//
	// Deprecated: a nil Dst already reads without materializing data.
	Discard bool
	// At places a non-nil Dst in the extent: Dst receives the bytes
	// [Offset+At, Offset+At+len(Dst)), which must lie within
	// [Offset, Offset+Length). Array reads only.
	At int64
	// Dst, when non-nil, receives len(Dst) of the extent's bytes, at At;
	// nil reads length-only. Array reads only.
	Dst []byte
}

// UpdateReq writes a batch of extents to one object shard on one target.
type UpdateReq struct {
	Cont   string
	OID    vos.ObjectID
	Target int
	Writes []WriteExt
}

// UpdateResp reports an update's outcome.
type UpdateResp struct {
	FirstTouch bool
	Epoch      vos.Epoch
}

// FetchReq reads a batch of extents from one object shard.
type FetchReq struct {
	Cont   string
	OID    vos.ObjectID
	Target int
	Reads  []ReadExt
	// Epoch bounds visibility; 0 means latest.
	Epoch vos.Epoch
}

// FetchResp carries fetched data, parallel to FetchReq.Reads: a single
// value's bytes or an array read's Dst. A nil entry reports a missing value
// or extent, or a present extent read with a nil Dst.
type FetchResp struct {
	Data [][]byte
}

// ListReq enumerates dkeys of a shard.
type ListReq struct {
	Cont   string
	OID    vos.ObjectID
	Target int
}

// ListResp carries enumerated dkeys.
type ListResp struct {
	Dkeys [][]byte
}

// SizeReq queries the shard-local high-water mark of an array object whose
// dkeys are chunk indexes (the DFS file layout).
type SizeReq struct {
	Cont      string
	OID       vos.ObjectID
	Target    int
	Akey      []byte
	ChunkSize int64
}

// SizeResp reports the shard-local end-of-file.
type SizeResp struct {
	Bytes int64
}

// reqSize estimates the on-wire size of a request for NIC charging.
func reqSize(body interface{}) int64 {
	switch r := body.(type) {
	case *UpdateReq:
		n := int64(96)
		for i := range r.Writes {
			w := &r.Writes[i]
			n += int64(len(w.Dkey)+len(w.Akey)+32) + w.length()
		}
		return n
	case *FetchReq:
		n := int64(96)
		for _, rd := range r.Reads {
			n += int64(len(rd.Dkey) + len(rd.Akey) + 32)
		}
		return n
	default:
		return 128
	}
}

// RequestSize is exported for clients that need to pre-compute RPC sizes.
func RequestSize(body interface{}) int64 { return reqSize(body) }

// handle serves the engine's object RPC service.
func (e *Engine) handle(p *sim.Proc, req fabric.Request) fabric.Response {
	if e.down {
		return fabric.Response{Err: fmt.Errorf("%w: engine %d", ErrEngineDown, e.cfg.ID), Size: 64}
	}
	e.RPCs++
	switch body := req.Body.(type) {
	case *UpdateReq:
		return e.handleUpdate(p, body)
	case *FetchReq:
		return e.handleFetch(p, body)
	case *ListReq:
		return e.handleList(p, body)
	case *SizeReq:
		return e.handleSize(p, body)
	default:
		return fabric.Response{Err: fmt.Errorf("engine: unknown request %T", req.Body), Size: 64}
	}
}

func (e *Engine) handleUpdate(p *sim.Proc, r *UpdateReq) fabric.Response {
	t, err := e.localTarget(r.Target)
	if err != nil {
		return fabric.Response{Err: err, Size: 64}
	}
	t.xstream.Acquire(p)
	defer t.xstream.Release()

	p.Sleep(e.cfg.Costs.RPCCost)
	cont := t.cont(r.Cont, true)
	epoch := e.nextEpoch()
	first := false
	var bytes int64
	for i := range r.Writes {
		w := &r.Writes[i]
		var created bool
		if w.Single {
			created = cont.UpdateSingle(r.OID, w.Dkey, w.Akey, epoch, w.Data)
		} else {
			created = cont.UpdateArrayFrom(r.OID, w.Dkey, w.Akey, epoch, w.Offset, w.length(), w.Data)
		}
		if created {
			first = true
		}
		bytes += w.length()
		p.Sleep(e.cfg.Costs.PerExtentCost)
	}
	if first {
		p.Sleep(e.cfg.Costs.FirstTouchCost)
	}
	e.clientWrBytes += bytes
	if err := e.device.Alloc(bytes); err != nil {
		return fabric.Response{Err: err, Size: 64}
	}
	e.device.Write(p, bytes)
	return fabric.Response{Body: &UpdateResp{FirstTouch: first, Epoch: epoch}, Size: 64}
}

func (e *Engine) handleFetch(p *sim.Proc, r *FetchReq) fabric.Response {
	t, err := e.localTarget(r.Target)
	if err != nil {
		return fabric.Response{Err: err, Size: 64}
	}
	t.xstream.Acquire(p)
	defer t.xstream.Release()

	p.Sleep(e.cfg.Costs.RPCCost)
	cont := t.cont(r.Cont, false)
	if cont == nil {
		// Nothing was ever written through this target: the whole batch
		// reads as absent (array holes / missing singles).
		return fabric.Response{Body: &FetchResp{Data: make([][]byte, len(r.Reads))}, Size: 64}
	}
	epoch := r.Epoch
	if epoch == 0 {
		epoch = vos.EpochMax
	}
	// Timing and wire accounting depend only on each read's length and
	// whether its akey is present — never on materialized buffers — so a
	// read with a nil Dst, or a Dst that takes part of the extent, charges
	// exactly what one whose Dst takes all of it charges: a present array
	// read contributes Length to device bytes and response size whether its
	// bytes land in the caller's span or nowhere. Only the bytes a Dst takes
	// are materialized, so only those can fail the read with
	// vos.ErrNoContent. A present extent answers with its Dst (nil when it
	// had none), an absent one with nil.
	resp := &FetchResp{Data: make([][]byte, len(r.Reads))}
	var bytes int64
	size := int64(64)
	for i, rd := range r.Reads {
		p.Sleep(e.cfg.Costs.PerExtentCost)
		if rd.Single {
			v, err := cont.FetchSingle(r.OID, rd.Dkey, rd.Akey, epoch)
			if err != nil {
				if errors.Is(err, vos.ErrNotFound) {
					resp.Data[i] = nil
					continue
				}
				return fabric.Response{Err: err, Size: 64}
			}
			resp.Data[i] = v
			bytes += int64(len(v))
			size += int64(len(v))
			continue
		}
		off, n := rd.Offset, rd.Length
		if rd.Dst != nil {
			if rd.At < 0 || rd.At > int64(rd.Length-len(rd.Dst)) {
				return fabric.Response{Err: fmt.Errorf("engine: %d-byte destination at %d outside a %d-byte read",
					len(rd.Dst), rd.At, rd.Length), Size: 64}
			}
			off, n = rd.Offset+rd.At, len(rd.Dst)
		}
		if err := cont.FetchArrayInto(r.OID, rd.Dkey, rd.Akey, epoch, off, n, rd.Dst); err != nil {
			if errors.Is(err, vos.ErrNotFound) {
				continue
			}
			return fabric.Response{Err: err, Size: 64}
		}
		resp.Data[i] = rd.Dst
		bytes += int64(rd.Length)
		size += int64(rd.Length)
	}
	e.device.Read(p, bytes)
	e.clientRdBytes += size - 64
	return fabric.Response{Body: resp, Size: size}
}

func (e *Engine) handleList(p *sim.Proc, r *ListReq) fabric.Response {
	t, err := e.localTarget(r.Target)
	if err != nil {
		return fabric.Response{Err: err, Size: 64}
	}
	t.xstream.Acquire(p)
	defer t.xstream.Release()
	p.Sleep(e.cfg.Costs.RPCCost)
	cont := t.cont(r.Cont, false)
	if cont == nil {
		return fabric.Response{Body: &ListResp{}, Size: 64}
	}
	dkeys, err := cont.ListDkeys(r.OID)
	if err != nil && !errors.Is(err, vos.ErrNotFound) {
		return fabric.Response{Err: err, Size: 64}
	}
	size := int64(64)
	for _, dk := range dkeys {
		size += int64(len(dk))
	}
	return fabric.Response{Body: &ListResp{Dkeys: dkeys}, Size: size}
}

func (e *Engine) handleSize(p *sim.Proc, r *SizeReq) fabric.Response {
	t, err := e.localTarget(r.Target)
	if err != nil {
		return fabric.Response{Err: err, Size: 64}
	}
	t.xstream.Acquire(p)
	defer t.xstream.Release()
	p.Sleep(e.cfg.Costs.RPCCost)
	cont := t.cont(r.Cont, false)
	if cont == nil {
		return fabric.Response{Body: &SizeResp{}, Size: 64}
	}
	dkeys, err := cont.ListDkeys(r.OID)
	if err != nil {
		if errors.Is(err, vos.ErrNotFound) {
			return fabric.Response{Body: &SizeResp{}, Size: 64}
		}
		return fabric.Response{Err: err, Size: 64}
	}
	var max int64
	for _, dk := range dkeys {
		p.Sleep(e.cfg.Costs.PerExtentCost)
		idx, ok := DecodeChunkDkey(dk)
		if !ok {
			continue
		}
		sz := cont.ArraySize(r.OID, dk, r.Akey, vos.EpochMax)
		if end := idx*r.ChunkSize + sz; end > max {
			max = end
		}
	}
	return fabric.Response{Body: &SizeResp{Bytes: max}, Size: 64}
}

// chunkPrefix and chunkDigits give a chunk dkey's canonical form:
// fmt.Sprintf("chunk.%016x", idx) for a non-negative idx.
const (
	chunkPrefix = "chunk."
	chunkDigits = 16
	hexDigits   = "0123456789abcdef"
)

// ChunkDkey encodes a non-negative chunk index as the dkey of a striped
// array object (the DFS file layout: one dkey per chunk).
func ChunkDkey(idx int64) []byte {
	dk := make([]byte, len(chunkPrefix)+chunkDigits)
	copy(dk, chunkPrefix)
	for i := len(dk) - 1; i >= len(chunkPrefix); i-- {
		dk[i] = hexDigits[idx&0xf]
		idx >>= 4
	}
	return dk
}

// DecodeChunkDkey parses a chunk dkey back to its index. Only the
// canonical form ChunkDkey makes decodes: the "chunk." prefix followed by
// exactly 16 lowercase hex digits whose first is 0-7, so the value fits an
// int64. Any other dkey (a DFS entry name, the superblock) is not a chunk.
func DecodeChunkDkey(dk []byte) (int64, bool) {
	if len(dk) != len(chunkPrefix)+chunkDigits || string(dk[:len(chunkPrefix)]) != chunkPrefix ||
		dk[len(chunkPrefix)] > '7' {
		return 0, false
	}
	var idx int64
	for _, c := range dk[len(chunkPrefix):] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			return 0, false
		}
		idx = idx<<4 | int64(c)
	}
	return idx, true
}

// XstreamUtilisation returns the mean utilisation across the engine's
// target xstreams.
func (e *Engine) XstreamUtilisation() float64 {
	var sum float64
	for _, t := range e.targets {
		sum += t.xstream.Utilisation()
	}
	return sum / float64(len(e.targets))
}
