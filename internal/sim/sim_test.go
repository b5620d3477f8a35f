package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	s.At(10*time.Millisecond, func() { order = append(order, 11) }) // ties fire in insertion order
	end := s.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("end time = %v, want 30ms", end)
	}
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New(1)
	s.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestProcSleep(t *testing.T) {
	s := New(1)
	var stamps []time.Duration
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(5 * time.Millisecond)
			stamps = append(stamps, p.Now())
		}
	})
	s.Run()
	want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	for i, w := range want {
		if stamps[i] != w {
			t.Fatalf("stamps = %v, want %v", stamps, want)
		}
	}
}

func TestSpawnInterleaving(t *testing.T) {
	s := New(1)
	var trace []string
	for _, name := range []string{"a", "b"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < 2; i++ {
				trace = append(trace, name)
				p.Sleep(time.Millisecond)
			}
		})
	}
	s.Run()
	want := []string{"a", "b", "a", "b"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestWaitGroupJoin(t *testing.T) {
	s := New(1)
	var doneAt time.Duration
	s.Spawn("parent", func(p *Proc) {
		wg := NewWaitGroup(s)
		for i := 1; i <= 3; i++ {
			d := time.Duration(i) * 10 * time.Millisecond
			wg.Go("child", func(c *Proc) { c.Sleep(d) })
		}
		wg.Wait(p)
		doneAt = p.Now()
	})
	s.Run()
	if doneAt != 30*time.Millisecond {
		t.Fatalf("join at %v, want 30ms", doneAt)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	s := New(1)
	ran := false
	s.Spawn("p", func(p *Proc) {
		wg := NewWaitGroup(s)
		wg.Wait(p) // must not block
		ran = true
	})
	s.Run()
	if !ran {
		t.Fatal("Wait on zero WaitGroup blocked")
	}
}

// TestWaitGroupFanOutAllocatesOnlyTheGroup: once the event pool and the
// coroutine arena are warm, a fan-out of k children joined by one Wait
// allocates NewWaitGroup's group and nothing else: Go wraps no closure
// around a child's body, and the first waiter needs no slice.
func TestWaitGroupFanOutAllocatesOnlyTheGroup(t *testing.T) {
	const k = 8
	s := New(1)
	child := func(c *Proc) { c.Sleep(time.Microsecond) }
	parent := func(p *Proc) {
		wg := NewWaitGroup(s)
		for i := 0; i < k; i++ {
			wg.Go("child", child)
		}
		wg.Wait(p)
	}
	fanOut := func() {
		s.Spawn("parent", parent)
		s.Run()
	}
	fanOut() // warm the event pool and the coroutine arena
	if n := testing.AllocsPerRun(10, fanOut); n != 1 {
		t.Fatalf("a %d-child fan-out and join allocated %.1f objects, want 1 (the group)", k, n)
	}
	s.discard()
}

func TestResourceFIFO(t *testing.T) {
	s := New(1)
	r := NewResource(s, "srv", 1)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			r.Acquire(p)
			order = append(order, name)
			p.Sleep(10 * time.Millisecond)
			r.Release()
		})
	}
	end := s.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("end = %v, want 30ms (serialized)", end)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if r.MaxQueue != 2 {
		t.Fatalf("MaxQueue = %d, want 2", r.MaxQueue)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	s := New(1)
	r := NewResource(s, "srv", 2)
	for i := 0; i < 4; i++ {
		s.Spawn("w", func(p *Proc) { r.Use(p, 10*time.Millisecond) })
	}
	end := s.Run()
	if end != 20*time.Millisecond {
		t.Fatalf("end = %v, want 20ms (two waves of two)", end)
	}
}

func TestResourceUtilisation(t *testing.T) {
	s := New(1)
	r := NewResource(s, "srv", 1)
	s.Spawn("w", func(p *Proc) {
		r.Use(p, 30*time.Millisecond)
		p.Sleep(10 * time.Millisecond)
	})
	s.Run()
	got := r.Utilisation()
	if got < 0.74 || got > 0.76 {
		t.Fatalf("utilisation = %v, want 0.75", got)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	s := New(1)
	r := NewResource(s, "srv", 1)
	defer func() {
		if recover() == nil {
			t.Error("release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestSharedBWSingleFlow(t *testing.T) {
	s := New(1)
	bw := NewSharedBW(s, "link", 1e9, 0) // 1 GB/s
	var done time.Duration
	s.Spawn("t", func(p *Proc) {
		bw.Transfer(p, 500_000_000) // 0.5 GB
		done = p.Now()
	})
	s.Run()
	want := 500 * time.Millisecond
	if diff := done - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("transfer completed at %v, want ~%v", done, want)
	}
}

func TestSharedBWFairSharing(t *testing.T) {
	// Two equal flows on a shared link take twice the solo duration.
	s := New(1)
	bw := NewSharedBW(s, "link", 1e9, 0)
	finish := map[string]time.Duration{}
	for _, name := range []string{"a", "b"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			bw.Transfer(p, 1e9)
			finish[name] = p.Now()
		})
	}
	s.Run()
	for name, at := range finish {
		if at < 1990*time.Millisecond || at > 2010*time.Millisecond {
			t.Fatalf("flow %s finished at %v, want ~2s", name, at)
		}
	}
	if got := bw.MaxFlows(); got != 2 {
		t.Fatalf("MaxFlows = %d, want 2", got)
	}
}

func TestSharedBWLateJoiner(t *testing.T) {
	// Flow A (1 GB) starts alone; flow B (0.25 GB) joins at t=0.5s.
	// A runs solo for 0.5s (0.5 GB done), then shares: each gets 0.5 GB/s.
	// B finishes at 0.5 + 0.25/0.5 = 1.0s; A then has 0.25 GB left at full
	// rate: finishes at 1.25s.
	s := New(1)
	bw := NewSharedBW(s, "link", 1e9, 0)
	var aDone, bDone time.Duration
	s.Spawn("a", func(p *Proc) {
		bw.Transfer(p, 1e9)
		aDone = p.Now()
	})
	s.Spawn("b", func(p *Proc) {
		p.Sleep(500 * time.Millisecond)
		bw.Transfer(p, 25e7)
		bDone = p.Now()
	})
	s.Run()
	if bDone < 995*time.Millisecond || bDone > 1005*time.Millisecond {
		t.Fatalf("b finished at %v, want ~1s", bDone)
	}
	if aDone < 1245*time.Millisecond || aDone > 1255*time.Millisecond {
		t.Fatalf("a finished at %v, want ~1.25s", aDone)
	}
}

func TestSharedBWPerFlowCap(t *testing.T) {
	// 10 GB/s link, 1 GB/s per-flow cap, one 1 GB flow: takes ~1s not 0.1s.
	s := New(1)
	bw := NewSharedBW(s, "link", 10e9, 1e9)
	var done time.Duration
	s.Spawn("t", func(p *Proc) {
		bw.Transfer(p, 1e9)
		done = p.Now()
	})
	s.Run()
	if done < 995*time.Millisecond || done > 1005*time.Millisecond {
		t.Fatalf("capped transfer finished at %v, want ~1s", done)
	}
}

func TestSharedBWConservation(t *testing.T) {
	// Total bytes moved equals total bytes requested exactly, regardless of
	// overlap: completed flows are booked at their requested size, never at
	// the overshooting credit of the nanosecond-rounded completion instant.
	s := New(42)
	bw := NewSharedBW(s, "link", 3e9, 0)
	var total int64
	rng := NewRNG(7)
	for i := 0; i < 50; i++ {
		size := int64(rng.Intn(1_000_000) + 1)
		start := time.Duration(rng.Intn(1000)) * time.Millisecond
		total += size
		s.Spawn("t", func(p *Proc) {
			p.Sleep(start)
			bw.Transfer(p, size)
		})
	}
	s.Run()
	if moved := bw.BytesMoved(); moved != float64(total) {
		t.Fatalf("moved %v bytes, want exactly %v", moved, total)
	}
	if bw.Active() != 0 {
		t.Fatalf("flows still active: %d", bw.Active())
	}
}

func TestQueueSendRecv(t *testing.T) {
	s := New(1)
	q := NewQueue(s, "q")
	var got []int
	s.Spawn("recv", func(p *Proc) {
		for {
			v, ok := q.Recv(p)
			if !ok {
				return
			}
			got = append(got, v.(int))
		}
	})
	s.Spawn("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Millisecond)
			q.Send(i)
		}
		p.Sleep(time.Millisecond)
		q.Close()
	})
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestQueueTryRecv(t *testing.T) {
	s := New(1)
	q := NewQueue(s, "q")
	if _, ok := q.TryRecv(); ok {
		t.Fatal("TryRecv on empty queue returned ok")
	}
	q.Send("x")
	v, ok := q.TryRecv()
	if !ok || v.(string) != "x" {
		t.Fatalf("TryRecv = %v, %v", v, ok)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(1)
	r := NewResource(s, "srv", 1)
	s.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		// never releases
	})
	s.Spawn("waiter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p) // parks forever
	})
	defer func() {
		if recover() == nil {
			t.Error("deadlocked run did not panic")
		}
	}()
	s.Run()
}

// explodeInBody is the frame TestBodyPanicReachesRunCaller looks for in the
// stack a process panic carries.
func explodeInBody() { panic("boom") }

// recovered calls fn and returns what it panicked with, or nil when it
// returned normally.
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestBodyPanicReachesRunCaller pins that a panic in a process body reaches
// the Run caller with the process name, the original value and the stack
// that panicked, and leaves the Sim inert: a later Run resumes nothing and
// raises no deadlock panic although a process is still parked.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	s := New(1)
	r := NewResource(s, "r", 1)
	s.Spawn("holder", func(p *Proc) { r.Acquire(p) })
	s.Spawn("waiter", func(p *Proc) { r.Acquire(p) }) // parks for good
	s.Spawn("faulty", func(p *Proc) {
		p.Sleep(time.Millisecond)
		explodeInBody()
	})
	got := recovered(func() { s.Run() })
	if got == nil {
		t.Fatal("Run returned normally past a process panic")
	}
	msg := fmt.Sprint(got)
	for _, want := range []string{`"faulty"`, "boom", "explodeInBody"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic text lacks %q:\n%s", want, msg)
		}
	}

	resumed := false
	s.Spawn("later", func(p *Proc) { resumed = true })
	if got := recovered(func() { s.Run() }); got != nil {
		t.Fatalf("Run on a broken Sim panicked: %v", got)
	}
	if !s.RunUntil(time.Hour) {
		t.Error("RunUntil on a broken Sim reported work left to drive")
	}
	if resumed || s.Now() != time.Millisecond {
		t.Errorf("broken Sim ran on: resumed=%v now=%v", resumed, s.Now())
	}
	if s.Quiesced() {
		t.Error("broken Sim reports quiesced")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(time.Second, func() { fired++ })
	s.At(3*time.Second, func() { fired++ })
	drained := s.RunUntil(2 * time.Second)
	if drained {
		t.Fatal("RunUntil reported drained with a future event pending")
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", s.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		s := New(99)
		bw := NewSharedBW(s, "link", 1e9, 0)
		r := NewResource(s, "cpu", 2)
		var finishes []time.Duration
		for i := 0; i < 10; i++ {
			sz := int64(s.RNG().Intn(1_000_000) + 1000)
			s.Spawn("w", func(p *Proc) {
				r.Use(p, time.Duration(sz/100)*time.Nanosecond)
				bw.Transfer(p, sz)
				finishes = append(finishes, p.Now())
			})
		}
		s.Run()
		return finishes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
