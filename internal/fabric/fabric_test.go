package fabric

import (
	"testing"
	"time"

	"daosim/internal/sim"
)

func testConfig() Config {
	return Config{
		WireLatency: 10 * time.Microsecond,
		NICBW:       1e9,
		MsgOverhead: 0,
	}
}

func TestRPCRoundTrip(t *testing.T) {
	s := sim.New(1)
	f := New(s, testConfig())
	client := f.AddNode("client")
	server := f.AddNode("server")
	server.Register("echo", func(p *sim.Proc, req Request) Response {
		return Response{Body: req.Body, Size: req.Size}
	})
	var got interface{}
	var done time.Duration
	s.Spawn("c", func(p *sim.Proc) {
		resp := f.Call(p, client, server, "echo", Request{Op: "echo", Body: "hi", Size: 1_000_000})
		got = resp.Body
		done = p.Now()
	})
	s.Run()
	if got != "hi" {
		t.Fatalf("echo body = %v", got)
	}
	// 1 MB each way at 1 GB/s = 2 ms, plus 2x10us wire, charged on both NICs:
	// store-and-forward tx then rx gives 2*(1ms+1ms) + 20us = 4.02 ms.
	want := 4*time.Millisecond + 20*time.Microsecond
	if diff := done - want; diff < -50*time.Microsecond || diff > 50*time.Microsecond {
		t.Fatalf("RPC took %v, want ~%v", done, want)
	}
}

func TestUnknownServiceErrors(t *testing.T) {
	s := sim.New(1)
	f := New(s, testConfig())
	a := f.AddNode("a")
	b := f.AddNode("b")
	var err error
	s.Spawn("c", func(p *sim.Proc) {
		err = f.Call(p, a, b, "nope", Request{}).Err
	})
	s.Run()
	if err == nil {
		t.Fatal("expected error for unknown service")
	}
}

func TestDuplicateServicePanics(t *testing.T) {
	s := sim.New(1)
	f := New(s, testConfig())
	n := f.AddNode("n")
	n.Register("svc", func(p *sim.Proc, req Request) Response { return Response{} })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	n.Register("svc", func(p *sim.Proc, req Request) Response { return Response{} })
}

func TestNICContention(t *testing.T) {
	// Two clients calling one server share the server RX NIC; each RPC takes
	// longer than a solo one would.
	s := sim.New(1)
	f := New(s, testConfig())
	server := f.AddNode("server")
	server.Register("sink", func(p *sim.Proc, req Request) Response { return Response{Size: 0} })

	solo := func() time.Duration {
		s2 := sim.New(1)
		f2 := New(s2, testConfig())
		srv := f2.AddNode("server")
		srv.Register("sink", func(p *sim.Proc, req Request) Response { return Response{Size: 0} })
		cl := f2.AddNode("c")
		var d time.Duration
		s2.Spawn("c", func(p *sim.Proc) {
			f2.Call(p, cl, srv, "sink", Request{Size: 10_000_000})
			d = p.Now()
		})
		s2.Run()
		return d
	}()

	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		client := f.AddNode("client")
		s.Spawn("c", func(p *sim.Proc) {
			f.Call(p, client, server, "sink", Request{Size: 10_000_000})
			done[i] = p.Now()
		})
	}
	s.Run()
	// TX happens on separate client NICs in parallel; the shared server RX
	// doubles, so each RPC takes ~1.5x the solo time.
	for _, d := range done {
		if d < solo*14/10 {
			t.Fatalf("contended RPC took %v, solo %v; expected meaningful slowdown", d, solo)
		}
	}
}

func TestLoopbackCheap(t *testing.T) {
	s := sim.New(1)
	f := New(s, testConfig())
	n := f.AddNode("n")
	n.Register("local", func(p *sim.Proc, req Request) Response { return Response{Size: req.Size} })
	var done time.Duration
	s.Spawn("c", func(p *sim.Proc) {
		f.Call(p, n, n, "local", Request{Size: 100_000_000})
		done = p.Now()
	})
	s.Run()
	if done > 10*time.Microsecond {
		t.Fatalf("loopback RPC took %v, should avoid NIC serialization", done)
	}
}

func TestSendDelivery(t *testing.T) {
	s := sim.New(1)
	f := New(s, testConfig())
	a := f.AddNode("a")
	b := f.AddNode("b")
	var got []int
	var recvAt time.Duration
	s.Spawn("recv", func(p *sim.Proc) {
		for len(got) < 2 {
			v, ok := b.Mailbox().Recv(p)
			if !ok {
				return
			}
			d := v.(Datagram)
			got = append(got, d.Body.(int))
			recvAt = p.Now()
		}
	})
	s.Spawn("send", func(p *sim.Proc) {
		f.Send(p, a, b, 1, 1000)
		f.Send(p, a, b, 2, 1000)
	})
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2] in order", got)
	}
	if recvAt < 10*time.Microsecond {
		t.Fatalf("delivery at %v ignored wire latency", recvAt)
	}
}

// TestSendToClosedMailboxIsDropped pins that a datagram still on the wire
// when its destination's mailbox closes is dropped, not delivered into the
// closed queue (which panics).
func TestSendToClosedMailboxIsDropped(t *testing.T) {
	s := sim.New(1)
	f := New(s, testConfig())
	a := f.AddNode("a")
	b := f.AddNode("b")
	s.Spawn("send", func(p *sim.Proc) {
		f.Send(p, a, b, 1, 1000)
		b.Mailbox().Close() // before the wire latency elapses
	})
	s.Run()
	if n := b.Mailbox().Len(); n != 0 {
		t.Fatalf("closed mailbox received %d datagrams, want 0", n)
	}
}

func TestSendDoesNotBlockOnReceiver(t *testing.T) {
	// One-way sends complete at TX serialization speed even if nobody reads.
	s := sim.New(1)
	f := New(s, testConfig())
	a := f.AddNode("a")
	b := f.AddNode("b")
	var sendDone time.Duration
	s.Spawn("send", func(p *sim.Proc) {
		f.Send(p, a, b, "x", 1_000_000) // 1 ms TX
		sendDone = p.Now()
	})
	s.Run()
	if sendDone > 2*time.Millisecond {
		t.Fatalf("send blocked for %v", sendDone)
	}
	if b.Mailbox().Len() != 1 {
		t.Fatalf("mailbox length = %d", b.Mailbox().Len())
	}
}

func TestMessageAccounting(t *testing.T) {
	s := sim.New(1)
	f := New(s, testConfig())
	a := f.AddNode("a")
	b := f.AddNode("b")
	b.Register("svc", func(p *sim.Proc, req Request) Response { return Response{Size: 10} })
	s.Spawn("c", func(p *sim.Proc) {
		f.Call(p, a, b, "svc", Request{Size: 100})
		f.Send(p, a, b, nil, 50)
	})
	s.Run()
	if f.Messages != 3 { // request + response + datagram
		t.Fatalf("messages = %d, want 3", f.Messages)
	}
	if f.Bytes != 160 {
		t.Fatalf("bytes = %d, want 160", f.Bytes)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NICBW < 10e9 {
		t.Fatal("dual-rail Omni-Path NIC should exceed 10 GB/s")
	}
	if cfg.FlowBW <= 0 || cfg.FlowBW > cfg.NICBW {
		t.Fatalf("flow cap %v out of range", cfg.FlowBW)
	}
}
