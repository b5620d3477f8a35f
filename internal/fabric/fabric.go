// Package fabric models the high-performance interconnect between cluster
// nodes, in the style of the OpenFabrics Interfaces (OFI/libfabric) layer
// DAOS uses: named nodes with full-duplex NICs, per-message wire latency,
// fair-shared link bandwidth, and two communication styles — blocking RPC
// (request/response executed in the caller's simulated process) and one-way
// datagram delivery into a destination mailbox (used by Raft).
//
// The NEXTGenIO system interconnect was Intel Omni-Path; the defaults model
// a dual-rail 100 Gbit/s fabric.
package fabric

import (
	"fmt"
	"time"

	"daosim/internal/sim"
)

// Config holds fabric-wide parameters.
type Config struct {
	// WireLatency is one-way propagation plus switching delay per message.
	WireLatency time.Duration
	// NICBW is the default per-node NIC bandwidth in bytes/s, each
	// direction (full duplex).
	NICBW float64
	// FlowBW optionally caps a single flow (one endpoint's processing
	// ceiling — a single OFI endpoint cannot saturate a dual-rail NIC).
	FlowBW float64
	// MsgOverhead is the fixed wire overhead added to every message
	// (headers, acknowledgements).
	MsgOverhead int64
}

// DefaultConfig models a dual-rail 100 Gbit/s Omni-Path style fabric.
func DefaultConfig() Config {
	return Config{
		WireLatency: 2 * time.Microsecond,
		NICBW:       25.0e9, // 2 x 100 Gbit/s rails
		FlowBW:      3.0e9,  // single endpoint stream ceiling
		MsgOverhead: 256,
	}
}

// Fabric is the interconnect instance.
type Fabric struct {
	sim *sim.Sim
	cfg Config

	// Messages counts every message placed on the wire.
	Messages int64
	// Bytes counts every payload byte placed on the wire.
	Bytes int64
}

// New creates an empty fabric.
func New(s *sim.Sim, cfg Config) *Fabric {
	if cfg.NICBW <= 0 {
		panic("fabric: NICBW must be positive")
	}
	return &Fabric{sim: s, cfg: cfg}
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Node is a machine on the fabric with a full-duplex NIC.
type Node struct {
	name     string
	tx, rx   *sim.SharedBW
	services map[string]Handler
	mailbox  *sim.Queue
}

// AddNode registers a node with the default NIC bandwidth.
func (f *Fabric) AddNode(name string) *Node {
	return f.AddNodeBW(name, f.cfg.NICBW)
}

// AddNodeBW registers a node with an explicit NIC bandwidth.
func (f *Fabric) AddNodeBW(name string, nicBW float64) *Node {
	return &Node{
		name:     name,
		tx:       sim.NewSharedBW(f.sim, name+"/tx", nicBW, f.cfg.FlowBW),
		rx:       sim.NewSharedBW(f.sim, name+"/rx", nicBW, f.cfg.FlowBW),
		services: make(map[string]Handler),
		mailbox:  sim.NewQueue(f.sim, name+"/mbox"),
	}
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Request is an RPC request: an opcode, a functional payload, and the
// payload's on-wire size used for timing.
type Request struct {
	Op   string
	Body interface{}
	Size int64
}

// Response is an RPC response.
type Response struct {
	Body interface{}
	Size int64
	Err  error
}

// Handler serves an RPC on the destination node. It runs inside the calling
// process, so any resource it acquires (engine xstreams, media channels)
// charges the caller's timeline exactly as a synchronous RPC would.
type Handler func(p *sim.Proc, req Request) Response

// Register installs a handler for the named service on this node.
func (n *Node) Register(service string, h Handler) {
	if _, dup := n.services[service]; dup {
		panic(fmt.Sprintf("fabric: duplicate service %q on %s", service, n.name))
	}
	n.services[service] = h
}

// transfer moves a payload of size bytes from src to dst, charging both NICs
// and the wire latency.
func (f *Fabric) transfer(p *sim.Proc, src, dst *Node, size int64) {
	f.Messages++
	f.Bytes += size
	wire := size + f.cfg.MsgOverhead
	if src != dst {
		src.tx.Transfer(p, wire)
		p.Sleep(f.cfg.WireLatency)
		dst.rx.Transfer(p, wire)
		return
	}
	// Loopback: shared-memory transport, no NIC serialization, small cost.
	p.Sleep(200 * time.Nanosecond)
}

// Call performs a blocking RPC from src to the named service on dst. Request
// and response payload sizes charge the NICs in both directions; the handler
// executes synchronously at the destination.
func (f *Fabric) Call(p *sim.Proc, src, dst *Node, service string, req Request) Response {
	h, ok := dst.services[service]
	if !ok {
		return Response{Err: fmt.Errorf("fabric: no service %q on node %s", service, dst.name)}
	}
	f.transfer(p, src, dst, req.Size)
	resp := h(p, req)
	f.transfer(p, dst, src, resp.Size)
	return resp
}

// Move transfers size bytes from src to dst, charging both NICs and the
// wire, with the calling process blocked for the duration (a rendezvous
// data movement, as in MPI point-to-point or collective exchange phases).
func (f *Fabric) Move(p *sim.Proc, src, dst *Node, size int64) {
	f.transfer(p, src, dst, size)
}

// Datagram is a one-way message delivered to a node mailbox.
type Datagram struct {
	Body interface{}
}

// Send delivers body one-way from src to dst's mailbox. The sender is only
// charged TX serialization; delivery happens after the wire latency without
// blocking the sender (buffered, credit-based transport). A datagram whose
// destination mailbox has closed by then is dropped, as a real fabric drops
// one sent to a stopped node.
func (f *Fabric) Send(p *sim.Proc, src, dst *Node, body interface{}, size int64) {
	f.Messages++
	f.Bytes += size
	wire := size + f.cfg.MsgOverhead
	if src != dst {
		src.tx.Transfer(p, wire)
	}
	d := Datagram{Body: body}
	f.sim.After(f.cfg.WireLatency, func() {
		if !dst.mailbox.Closed() {
			dst.mailbox.Send(d)
		}
	})
}

// Mailbox returns the node's datagram mailbox.
func (n *Node) Mailbox() *sim.Queue { return n.mailbox }

// TX returns the node's transmit channel (for utilisation reporting).
func (n *Node) TX() *sim.SharedBW { return n.tx }

// RX returns the node's receive channel.
func (n *Node) RX() *sim.SharedBW { return n.rx }
