// Package svc implements the DAOS pool service: the replicated management
// metadata store (pools, containers, attributes) that DAOS keeps in a
// Raft-replicated state machine hosted on a subset of the engines.
//
// Commands and snapshots are gob-encoded. Each command is a self-contained
// gob record, and replicas decode it through primed decoders (package
// gobrec) that skip recompiling Command's type for every record. Replicas
// communicate over the cluster fabric, and clients reach the service
// through a fabric RPC that transparently follows leader redirects.
package svc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"daosim/internal/fabric"
	"daosim/internal/gobrec"
	"daosim/internal/raft"
	"daosim/internal/sim"
)

// Op enumerates pool service commands.
type Op string

// Pool service operations.
const (
	OpCreatePool Op = "create-pool"
	OpCreateCont Op = "create-cont"
	OpSetAttr    Op = "set-attr"
	OpListConts  Op = "list-conts"
	OpQueryPool  Op = "query-pool"
)

// Command is one pool service request. Its gob encoding is what a client
// sends, so its size is charged on the wire.
type Command struct {
	Op    Op
	Pool  string // pool label
	Cont  string // container label
	Key   string // attribute key
	Value string // attribute value
	Props map[string]string
	// Targets lists the engine IDs backing the pool (create-pool).
	Targets []int
}

// PoolInfo describes a pool.
type PoolInfo struct {
	Label   string
	UUID    string
	Targets []int
	Conts   map[string]*ContInfo
	Attrs   map[string]string
}

// ContInfo describes a container.
type ContInfo struct {
	Label string
	UUID  string
	Props map[string]string
}

// Result is a pool service reply.
type Result struct {
	Pool *PoolInfo
	Cont *ContInfo
	List []string
	Err  string
}

// Errors surfaced by the service.
var (
	ErrExists   = errors.New("svc: already exists")
	ErrNotFound = errors.New("svc: not found")
)

// State is the replicated pool service state machine.
type State struct {
	Pools map[string]*PoolInfo
	Seq   uint64 // deterministic UUID source
}

// NewState returns an empty state machine.
func NewState() *State { return &State{Pools: make(map[string]*PoolInfo)} }

func (st *State) nextUUID(kind string) string {
	st.Seq++
	return fmt.Sprintf("%s-%08x-%04x", kind, st.Seq*0x9E3779B9, st.Seq)
}

// commands decodes the command records Apply receives.
var commands gobrec.Decoder[Command]

// Apply implements raft.StateMachine.
func (st *State) Apply(index uint64, cmd []byte) interface{} {
	var c Command
	if err := commands.Decode(cmd, &c); err != nil {
		return Result{Err: "svc: bad command: " + err.Error()}
	}
	return st.apply(c)
}

func (st *State) apply(c Command) Result {
	switch c.Op {
	case OpCreatePool:
		if _, dup := st.Pools[c.Pool]; dup {
			return Result{Err: fmt.Sprintf("pool %q: %v", c.Pool, ErrExists)}
		}
		p := &PoolInfo{
			Label:   c.Pool,
			UUID:    st.nextUUID("pool"),
			Targets: append([]int(nil), c.Targets...),
			Conts:   make(map[string]*ContInfo),
			Attrs:   copyMap(c.Props),
		}
		st.Pools[c.Pool] = p
		return Result{Pool: clonePool(p)}
	case OpCreateCont:
		p, ok := st.Pools[c.Pool]
		if !ok {
			return Result{Err: fmt.Sprintf("pool %q: %v", c.Pool, ErrNotFound)}
		}
		if _, dup := p.Conts[c.Cont]; dup {
			return Result{Err: fmt.Sprintf("container %q: %v", c.Cont, ErrExists)}
		}
		ct := &ContInfo{Label: c.Cont, UUID: st.nextUUID("cont"), Props: copyMap(c.Props)}
		p.Conts[c.Cont] = ct
		return Result{Cont: cloneCont(ct)}
	case OpSetAttr:
		p, ok := st.Pools[c.Pool]
		if !ok {
			return Result{Err: fmt.Sprintf("pool %q: %v", c.Pool, ErrNotFound)}
		}
		p.Attrs[c.Key] = c.Value
		return Result{}
	case OpListConts:
		p, ok := st.Pools[c.Pool]
		if !ok {
			return Result{Err: fmt.Sprintf("pool %q: %v", c.Pool, ErrNotFound)}
		}
		var names []string
		for name := range p.Conts {
			names = append(names, name)
		}
		sortStrings(names)
		return Result{List: names}
	case OpQueryPool:
		p, ok := st.Pools[c.Pool]
		if !ok {
			return Result{Err: fmt.Sprintf("pool %q: %v", c.Pool, ErrNotFound)}
		}
		return Result{Pool: clonePool(p)}
	default:
		return Result{Err: fmt.Sprintf("svc: unknown op %q", c.Op)}
	}
}

// Snapshot implements raft.StateMachine.
func (st *State) Snapshot() []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		panic("svc: snapshot encode: " + err.Error())
	}
	return buf.Bytes()
}

// Restore implements raft.StateMachine.
func (st *State) Restore(snap []byte) {
	var next State
	if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&next); err != nil {
		panic("svc: snapshot decode: " + err.Error())
	}
	if next.Pools == nil {
		next.Pools = make(map[string]*PoolInfo)
	}
	*st = next
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func clonePool(p *PoolInfo) *PoolInfo {
	cp := &PoolInfo{
		Label:   p.Label,
		UUID:    p.UUID,
		Targets: append([]int(nil), p.Targets...),
		Conts:   make(map[string]*ContInfo, len(p.Conts)),
		Attrs:   copyMap(p.Attrs),
	}
	for k, v := range p.Conts {
		cp.Conts[k] = cloneCont(v)
	}
	return cp
}

func cloneCont(c *ContInfo) *ContInfo {
	return &ContInfo{Label: c.Label, UUID: c.UUID, Props: copyMap(c.Props)}
}

// insertion sort keeps svc free of package sort for tiny lists; determinism
// matters more than asymptotics here.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// fabricTransport carries raft traffic between replica fabric nodes.
type fabricTransport struct {
	f     *fabric.Fabric
	nodes []*fabric.Node // indexed by raft ID
	svc   *Service
}

// Send implements raft.Transport.
func (t *fabricTransport) Send(p *sim.Proc, from, to int, m interface{}, size int64) {
	t.f.Send(p, t.nodes[from], t.nodes[to], raftEnvelope{m}, size)
}

// raftEnvelope wraps raft traffic so mailbox pumps can distinguish it.
type raftEnvelope struct{ msg interface{} }

// Service is a running pool service: raft replicas hosted on fabric nodes.
type Service struct {
	sim      *sim.Sim
	fabric   *fabric.Fabric
	replicas []*raft.Node
	nodes    []*fabric.Node
}

// ServiceName is the fabric RPC service name clients call.
const ServiceName = "rsvc"

// Start boots a pool service replicated across the given fabric nodes.
func Start(s *sim.Sim, f *fabric.Fabric, nodes []*fabric.Node) *Service {
	svc := &Service{sim: s, fabric: f, nodes: nodes}
	tr := &fabricTransport{f: f, nodes: nodes, svc: svc}
	peers := make([]int, len(nodes))
	for i := range peers {
		peers[i] = i
	}
	for i, fn := range nodes {
		cfg := raft.DefaultConfig(i, peers)
		node := raft.NewNode(s, cfg, tr, func() raft.StateMachine { return NewState() })
		svc.replicas = append(svc.replicas, node)
		// Pump: fabric mailbox -> raft mailbox.
		node, fn := node, fn
		s.Spawn(fmt.Sprintf("rsvc-pump-%d", i), func(p *sim.Proc) {
			for {
				v, ok := fn.Mailbox().Recv(p)
				if !ok {
					return
				}
				// A stopped replica has closed its mailbox: drop the
				// message, as the fabric drops one to a stopped node.
				if env, isRaft := v.(fabric.Datagram); isRaft && !node.Mailbox().Closed() {
					if re, ok := env.Body.(raftEnvelope); ok {
						node.Mailbox().Send(re.msg)
					}
				}
			}
		})
		// RPC endpoint: clients propose through the fabric.
		replicaIdx := i
		fn.Register(ServiceName, func(p *sim.Proc, req fabric.Request) fabric.Response {
			cmdBytes := req.Body.([]byte)
			fut := svc.replicas[replicaIdx].Propose(cmdBytes)
			res, err := fut.Wait(p)
			if err != nil {
				return fabric.Response{Err: err, Size: 64}
			}
			r := res.(Result)
			return fabric.Response{Body: r, Size: 256}
		})
	}
	return svc
}

// Stop shuts down every replica (used to quiesce the simulation).
func (s *Service) Stop() {
	for _, r := range s.replicas {
		r.Stop()
	}
	for _, n := range s.nodes {
		n.Mailbox().Close()
	}
}

// WaitReady runs the simulation until a leader exists or the deadline
// passes.
func (s *Service) WaitReady(deadline time.Duration) bool {
	for s.sim.Now() < deadline {
		s.sim.RunUntil(s.sim.Now() + 10*time.Millisecond)
		for _, r := range s.replicas {
			if r.Role() == raft.Leader {
				return true
			}
		}
	}
	return false
}

// Leader returns the current leader replica index, or -1.
func (s *Service) Leader() int {
	for i, r := range s.replicas {
		if r.Role() == raft.Leader {
			return i
		}
	}
	return -1
}

// ReplicaNode returns the fabric node hosting replica i.
func (s *Service) ReplicaNode(i int) *fabric.Node { return s.nodes[i] }

// NumReplicas returns the replica count.
func (s *Service) NumReplicas() int { return len(s.replicas) }

// Kill crashes replica i (failure injection).
func (s *Service) Kill(i int) { s.replicas[i].Kill() }

// Restart recovers replica i.
func (s *Service) Restart(i int) { s.replicas[i].Restart() }

// Client executes pool service commands from a client fabric node,
// following leader redirects.
type Client struct {
	svc    *Service
	src    *fabric.Node
	leader int // cached leader replica index
}

// NewClient returns a client bound to the caller's fabric node.
func NewClient(s *Service, src *fabric.Node) *Client {
	return &Client{svc: s, src: src}
}

// Execute runs one command, retrying across replicas until the leader
// accepts it or the attempt budget is exhausted.
func (c *Client) Execute(p *sim.Proc, cmd Command) (Result, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cmd); err != nil {
		return Result{}, fmt.Errorf("svc: encode: %w", err)
	}
	payload := buf.Bytes()
	attempts := 0
	replica := c.leader
	deadline := p.Now() + 30*time.Second // election storms resolve well within this
	for p.Now() < deadline {
		attempts++
		resp := c.svc.fabric.Call(p, c.src, c.svc.nodes[replica], ServiceName, fabric.Request{
			Op:   string(cmd.Op),
			Body: payload,
			Size: int64(len(payload)) + 64,
		})
		if resp.Err != nil {
			var nle *raft.NotLeaderError
			if errors.As(resp.Err, &nle) && nle.LeaderHint >= 0 && nle.LeaderHint < c.svc.NumReplicas() {
				replica = nle.LeaderHint
			} else {
				replica = (replica + 1) % c.svc.NumReplicas()
			}
			p.Sleep(25 * time.Millisecond) // back off past election churn
			continue
		}
		c.leader = replica
		r := resp.Body.(Result)
		if r.Err != "" {
			return r, errors.New(r.Err)
		}
		return r, nil
	}
	return Result{}, fmt.Errorf("svc: no leader reachable after %d attempts", attempts)
}
