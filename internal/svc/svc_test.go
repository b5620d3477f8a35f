package svc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"
	"time"

	"daosim/internal/fabric"
	"daosim/internal/sim"
)

// harness boots a 3-replica service plus one client node.
type harness struct {
	sim    *sim.Sim
	fab    *fabric.Fabric
	svc    *Service
	client *Client
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	s := sim.New(42)
	f := fabric.New(s, fabric.DefaultConfig())
	var replicas []*fabric.Node
	for i := 0; i < 3; i++ {
		replicas = append(replicas, f.AddNode("server"))
	}
	clientNode := f.AddNode("client")
	service := Start(s, f, replicas)
	if !service.WaitReady(10 * time.Second) {
		t.Fatal("pool service did not elect a leader")
	}
	return &harness{sim: s, fab: f, svc: service, client: NewClient(service, clientNode)}
}

// exec runs one command to completion on the harness.
func (h *harness) exec(t *testing.T, cmd Command) (Result, error) {
	t.Helper()
	var res Result
	var err error
	done := false
	h.sim.Spawn("client", func(p *sim.Proc) {
		res, err = h.client.Execute(p, cmd)
		done = true
	})
	deadline := h.sim.Now() + 30*time.Second
	for !done && h.sim.Now() < deadline {
		h.sim.RunUntil(h.sim.Now() + 50*time.Millisecond)
	}
	if !done {
		t.Fatalf("command %v did not complete", cmd.Op)
	}
	return res, err
}

// state returns replica i's replicated state machine. No client op reads
// attributes back, so tests inspect them here.
func (h *harness) state(i int) *State {
	return h.svc.replicas[i].StateMachineRef().(*State)
}

func TestCreateAndQueryPool(t *testing.T) {
	h := newHarness(t)
	res, err := h.exec(t, Command{Op: OpCreatePool, Pool: "p0", Targets: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pool == nil || res.Pool.UUID == "" {
		t.Fatalf("pool info missing: %+v", res)
	}
	res, err = h.exec(t, Command{Op: OpQueryPool, Pool: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pool.Targets) != 4 {
		t.Fatalf("targets = %v", res.Pool.Targets)
	}
}

func TestDuplicatePoolRejected(t *testing.T) {
	h := newHarness(t)
	if _, err := h.exec(t, Command{Op: OpCreatePool, Pool: "p0"}); err != nil {
		t.Fatal(err)
	}
	_, err := h.exec(t, Command{Op: OpCreatePool, Pool: "p0"})
	if err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("duplicate create err = %v", err)
	}
}

func TestContainerLifecycle(t *testing.T) {
	h := newHarness(t)
	h.exec(t, Command{Op: OpCreatePool, Pool: "p0"})
	res, err := h.exec(t, Command{
		Op: OpCreateCont, Pool: "p0", Cont: "c0",
		Props: map[string]string{"oclass": "S2", "chunk": "1048576"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cont.Props["oclass"] != "S2" {
		t.Fatalf("props = %v", res.Cont.Props)
	}
	h.exec(t, Command{Op: OpCreateCont, Pool: "p0", Cont: "a-first"})
	res, err = h.exec(t, Command{Op: OpListConts, Pool: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.List) != 2 || res.List[0] != "a-first" || res.List[1] != "c0" {
		t.Fatalf("list = %v", res.List)
	}
}

func TestAttrs(t *testing.T) {
	h := newHarness(t)
	h.exec(t, Command{Op: OpCreatePool, Pool: "p0"})
	if _, err := h.exec(t, Command{Op: OpSetAttr, Pool: "p0", Key: "owner", Value: "ecmwf"}); err != nil {
		t.Fatal(err)
	}
	attrs := h.state(h.svc.Leader()).Pools["p0"].Attrs
	if v, ok := attrs["owner"]; !ok || v != "ecmwf" {
		t.Fatalf("leader's attrs = %v, want owner=ecmwf", attrs)
	}
	if _, ok := attrs["missing"]; ok {
		t.Fatal("unset attr present")
	}
}

func TestMissingPoolErrors(t *testing.T) {
	h := newHarness(t)
	for _, op := range []Op{OpQueryPool, OpCreateCont, OpListConts, OpSetAttr} {
		if _, err := h.exec(t, Command{Op: op, Pool: "nope", Cont: "c", Key: "k"}); err == nil {
			t.Fatalf("op %s on missing pool succeeded", op)
		}
	}
}

func TestLeaderFailoverDuringUse(t *testing.T) {
	h := newHarness(t)
	h.exec(t, Command{Op: OpCreatePool, Pool: "p0"})
	leader := h.svc.Leader()
	if leader < 0 {
		t.Fatal("no leader")
	}
	h.svc.Kill(leader)
	// The client must ride through the failover via redirects/retries.
	res, err := h.exec(t, Command{Op: OpCreateCont, Pool: "p0", Cont: "after-failover"})
	if err != nil {
		t.Fatalf("command after failover: %v", err)
	}
	if res.Cont == nil {
		t.Fatal("no container info")
	}
	// Recover the old leader; state must converge (checked via a query).
	h.svc.Restart(leader)
	h.sim.RunUntil(h.sim.Now() + 2*time.Second)
	res, err = h.exec(t, Command{Op: OpListConts, Pool: "p0"})
	if err != nil || len(res.List) != 1 {
		t.Fatalf("post-recovery list = %v, %v", res.List, err)
	}
}

func TestStateSnapshotRoundTrip(t *testing.T) {
	st := NewState()
	st.apply(Command{Op: OpCreatePool, Pool: "p0", Targets: []int{1, 2}})
	st.apply(Command{Op: OpCreateCont, Pool: "p0", Cont: "c0", Props: map[string]string{"k": "v"}})
	snap := st.Snapshot()
	st2 := NewState()
	st2.Restore(snap)
	r := st2.apply(Command{Op: OpQueryPool, Pool: "p0"})
	if r.Err != "" || len(r.Pool.Targets) != 2 {
		t.Fatalf("restored state broken: %+v", r)
	}
	r = st2.apply(Command{Op: OpListConts, Pool: "p0"})
	if len(r.List) != 1 || r.List[0] != "c0" {
		t.Fatalf("restored containers = %v", r.List)
	}
	// UUID sequence must continue, not restart (no duplicate UUIDs).
	r1 := st.apply(Command{Op: OpCreateCont, Pool: "p0", Cont: "x"})
	r2 := st2.apply(Command{Op: OpCreateCont, Pool: "p0", Cont: "x"})
	if r1.Cont.UUID != r2.Cont.UUID {
		t.Fatalf("determinism broken: %s vs %s", r1.Cont.UUID, r2.Cont.UUID)
	}
}

func TestApplyRejectsGarbage(t *testing.T) {
	st := NewState()
	r := st.Apply(1, []byte("not gob")).(Result)
	if r.Err == "" {
		t.Fatal("garbage command applied")
	}
	// Command's type definitions followed by garbage, between two good
	// records. The zero Command encoded twice on one encoder is the
	// definitions, a value message, and the same value message again.
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(Command{}); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := enc.Encode(Command{}); err != nil {
		t.Fatal(err)
	}
	// The garbage starts like a value message (a length, then a
	// non-negative type id), so a primed decoder reads it.
	garbage := append(bytes.Clone(buf.Bytes()[:2*n-buf.Len()]), "\x08\x02garbage"...)
	if r := st.Apply(2, encodeCommand(t, Command{Op: OpCreatePool, Pool: "p0"})).(Result); r.Err != "" {
		t.Fatalf("create-pool: %s", r.Err)
	}
	if r := st.Apply(3, garbage).(Result); !strings.HasPrefix(r.Err, "svc: bad command: ") {
		t.Fatalf("prefixed garbage: Err = %q", r.Err)
	}
	if r := st.Apply(4, encodeCommand(t, Command{Op: OpQueryPool, Pool: "p0"})).(Result); r.Err != "" || r.Pool == nil {
		t.Fatalf("query-pool after the garbage: %+v", r)
	}
	r = st.apply(Command{Op: "bogus"})
	if !strings.Contains(r.Err, "unknown op") {
		t.Fatalf("err = %q", r.Err)
	}
}

// encodeCommand returns c as the record Client.Execute sends.
func encodeCommand(t *testing.T, c Command) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestResultErrMapping(t *testing.T) {
	if !errors.Is(ErrExists, ErrExists) || !errors.Is(ErrNotFound, ErrNotFound) {
		t.Fatal("sentinel identity broken")
	}
}
