package svc

import (
	"fmt"
	"testing"
	"time"

	"daosim/internal/raft"
)

// TestScheduledFaultFailoverScenario promotes the daosctl failure-injection
// walkthrough into a unit harness, with the faults scheduled at virtual
// instants in the fault-plan style (sim.At) rather than interleaved by the
// test goroutine. It drives the scripted admin session straight through a
// leader kill and later restart, asserting the three scenario invariants:
//
//   - leader failover: a new leader (a different replica) is elected while
//     the old one is down, and the restarted replica rejoins as follower;
//   - version monotonicity: no replica's term ever decreases across the
//     fault, and the replicated state never rolls back (every container
//     created before or during the window is still listed after it);
//   - client retry transparency: every command issued across the window
//     succeeds via redirects/retries — the caller never sees the fault.
func TestScheduledFaultFailoverScenario(t *testing.T) {
	h := newHarness(t)

	// Steps 1-3 of the walkthrough: pool, container, attribute.
	if _, err := h.exec(t, Command{Op: OpCreatePool, Pool: "tank", Targets: []int{0, 1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.exec(t, Command{Op: OpCreateCont, Pool: "tank", Cont: "home"}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.exec(t, Command{Op: OpSetAttr, Pool: "tank", Key: "owner", Value: "epcc"}); err != nil {
		t.Fatal(err)
	}

	leader0 := h.svc.Leader()
	if leader0 < 0 {
		t.Fatal("no leader after setup")
	}
	terms := make([]uint64, h.svc.NumReplicas())
	for i, r := range h.svc.replicas {
		terms[i] = r.Term()
	}
	// checkTerms asserts per-replica term monotonicity at a sample point.
	checkTerms := func(when string) {
		t.Helper()
		for i, r := range h.svc.replicas {
			if cur := r.Term(); cur < terms[i] {
				t.Fatalf("%s: replica %d term went backwards: %d -> %d", when, i, terms[i], cur)
			} else {
				terms[i] = cur
			}
		}
	}

	// The fault plan: kill the leader shortly after the session resumes,
	// restart it half a second later — both at fixed virtual instants.
	killAt := h.sim.Now() + 50*time.Millisecond
	restartAt := killAt + 500*time.Millisecond
	h.sim.At(killAt, func() { h.svc.Kill(leader0) })
	h.sim.At(restartAt, func() { h.svc.Restart(leader0) })

	// The scripted session keeps administering straight through the window:
	// ten container creates whose execution spans kill and restart. Each
	// must succeed transparently.
	for i := 0; i < 10; i++ {
		if _, err := h.exec(t, Command{Op: OpCreateCont, Pool: "tank", Cont: fmt.Sprintf("c%02d", i)}); err != nil {
			t.Fatalf("create c%02d across the fault window: %v", i, err)
		}
		checkTerms(fmt.Sprintf("after create c%02d", i))
		// Probe failover exactly once, mid-window: a new leader must exist
		// and it cannot be the killed replica.
		if now := h.sim.Now(); now > killAt && now < restartAt {
			if l := h.svc.Leader(); l == leader0 {
				t.Fatalf("killed replica %d still reported as leader at %v", leader0, now)
			}
		}
	}
	if h.sim.Now() <= restartAt {
		t.Fatalf("session finished at %v, before the restart at %v — the window never spanned the commands", h.sim.Now(), restartAt)
	}

	// Let the restarted replica catch up, then verify it rejoined as a
	// follower of a live leader.
	h.sim.RunUntil(h.sim.Now() + 2*time.Second)
	checkTerms("after recovery")
	if h.svc.replicas[leader0].Role() == raft.Leader && h.svc.Leader() != leader0 {
		t.Fatalf("restarted replica %d claims leadership it does not hold", leader0)
	}
	if h.svc.Leader() < 0 {
		t.Fatal("no leader after recovery")
	}

	// No rollback: every container created before or during the window is
	// still present, exactly once, after recovery.
	res, err := h.exec(t, Command{Op: OpListConts, Pool: "tank"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.List) != 11 {
		t.Fatalf("containers after recovery = %v, want home + c00..c09", res.List)
	}
	seen := make(map[string]bool)
	for _, name := range res.List {
		if seen[name] {
			t.Fatalf("container %q listed twice: %v", name, res.List)
		}
		seen[name] = true
	}
	// And the attribute written before the fault survived it, on every
	// replica, the restarted one included.
	for i := range h.svc.replicas {
		if p := h.state(i).Pools["tank"]; p == nil || p.Attrs["owner"] != "epcc" {
			t.Fatalf("replica %d: pool after recovery = %+v, want owner=epcc", i, p)
		}
	}
}

// TestScheduledFaultKillWithoutRestart pins the open-window variant: with
// the leader killed and never restarted, the surviving quorum elects a new
// leader and keeps serving — and the dead replica stays a non-leader.
func TestScheduledFaultKillWithoutRestart(t *testing.T) {
	h := newHarness(t)
	if _, err := h.exec(t, Command{Op: OpCreatePool, Pool: "tank"}); err != nil {
		t.Fatal(err)
	}
	leader0 := h.svc.Leader()
	h.sim.At(h.sim.Now()+20*time.Millisecond, func() { h.svc.Kill(leader0) })

	for i := 0; i < 3; i++ {
		if _, err := h.exec(t, Command{Op: OpCreateCont, Pool: "tank", Cont: fmt.Sprintf("c%d", i)}); err != nil {
			t.Fatalf("create c%d on the surviving quorum: %v", i, err)
		}
	}
	if l := h.svc.Leader(); l < 0 || l == leader0 {
		t.Fatalf("surviving quorum leader = %d (killed %d)", l, leader0)
	}
	res, err := h.exec(t, Command{Op: OpListConts, Pool: "tank"})
	if err != nil || len(res.List) != 3 {
		t.Fatalf("containers on degraded quorum = %v, %v", res.List, err)
	}
}
