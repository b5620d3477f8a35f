package media

import (
	"errors"
	"testing"
	"time"

	"daosim/internal/sim"
)

func testParams() Params {
	return Params{
		Name:         "dev",
		Capacity:     GiB,
		ReadLatency:  10 * time.Microsecond,
		WriteLatency: 20 * time.Microsecond,
		ReadBW:       1e9,
		WriteBW:      5e8,
	}
}

func TestReadTiming(t *testing.T) {
	s := sim.New(1)
	d := NewDevice(s, testParams())
	var done time.Duration
	s.Spawn("r", func(p *sim.Proc) {
		d.Read(p, 100_000_000) // 0.1 GB at 1 GB/s = 100 ms + 10 us latency
		done = p.Now()
	})
	s.Run()
	want := 100*time.Millisecond + 10*time.Microsecond
	if diff := done - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("read completed at %v, want ~%v", done, want)
	}
	if d.ReadOps != 1 || d.ReadBytes != 100_000_000 {
		t.Fatalf("counters: ops=%d bytes=%d", d.ReadOps, d.ReadBytes)
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	s := sim.New(1)
	d := NewDevice(s, testParams())
	var rDone, wDone time.Duration
	s.Spawn("r", func(p *sim.Proc) { d.Read(p, 50_000_000); rDone = p.Now() })
	s.Spawn("w", func(p *sim.Proc) { d.Write(p, 50_000_000); wDone = p.Now() })
	s.Run()
	if wDone <= rDone {
		t.Fatalf("write (%v) should be slower than read (%v) on asymmetric media", wDone, rDone)
	}
}

func TestWriteContention(t *testing.T) {
	// Two concurrent writers on a fair-shared channel take ~twice as long.
	s := sim.New(1)
	d := NewDevice(s, testParams())
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("w", func(p *sim.Proc) {
			d.Write(p, 50_000_000) // 0.1s solo at 0.5 GB/s
			done[i] = p.Now()
		})
	}
	s.Run()
	for _, at := range done {
		if at < 195*time.Millisecond || at > 205*time.Millisecond {
			t.Fatalf("contended write finished at %v, want ~200ms", at)
		}
	}
}

func TestCapacityAccounting(t *testing.T) {
	s := sim.New(1)
	d := NewDevice(s, testParams())
	if err := d.Alloc(GiB / 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(GiB / 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overcommit error = %v, want ErrNoSpace", err)
	}
	if d.Used() != GiB {
		t.Fatalf("used = %d", d.Used())
	}
}

func TestDCPMMPreset(t *testing.T) {
	p := DCPMMInterleaved("scm", 6)
	if p.Capacity != 6*256*GiB {
		t.Fatalf("capacity = %d", p.Capacity)
	}
	if p.ReadBW <= p.WriteBW {
		t.Fatal("DCPMM must be read/write asymmetric")
	}
	if p.ReadBW != 6*5.0e9 {
		t.Fatalf("interleaving must scale read bandwidth, got %v", p.ReadBW)
	}
}

func TestFlowCapLimitsSingleStream(t *testing.T) {
	s := sim.New(1)
	p := testParams()
	p.FlowReadBW = 1e8 // 0.1 GB/s cap on a 1 GB/s device
	d := NewDevice(s, p)
	var done time.Duration
	s.Spawn("r", func(pr *sim.Proc) {
		d.Read(pr, 100_000_000)
		done = pr.Now()
	})
	s.Run()
	if done < 990*time.Millisecond {
		t.Fatalf("capped read finished at %v, want ~1s", done)
	}
}
