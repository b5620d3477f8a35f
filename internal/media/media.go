// Package media models storage media devices: Intel Optane DC Persistent
// Memory Modules (DCPMM) in AppDirect interleaved mode.
//
// A Device combines a timing model (per-operation setup latency plus
// fair-shared read and write bandwidth channels, since persistent memory is
// strongly read/write asymmetric) with capacity accounting. The functional
// content of objects lives in the VOS layer; media charges the virtual clock
// and tracks space.
//
// Presets reproduce the NEXTGenIO node configuration used in the paper:
// six 256 GiB first-generation DCPMMs per socket, AppDirect interleaved,
// one DAOS engine per socket.
package media

import (
	"errors"
	"fmt"
	"time"

	"daosim/internal/sim"
)

// ErrNoSpace is returned when an allocation exceeds remaining capacity.
var ErrNoSpace = errors.New("media: out of space")

// Params describes a device's performance envelope and capacity.
type Params struct {
	// Name identifies the device in metrics and errors.
	Name string
	// Capacity is the usable byte capacity.
	Capacity int64
	// ReadLatency and WriteLatency are per-operation setup costs
	// (media access latency, not software path costs).
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// ReadBW and WriteBW are aggregate sequential bandwidths in bytes/s.
	ReadBW  float64
	WriteBW float64
	// FlowReadBW and FlowWriteBW optionally cap a single stream, modelling
	// per-channel limits. Zero means uncapped.
	FlowReadBW  float64
	FlowWriteBW float64
}

// Device is one media instance bound to a simulator.
type Device struct {
	params  Params
	readCh  *sim.SharedBW
	writeCh *sim.SharedBW
	used    int64

	// Counters for reporting.
	ReadOps, WriteOps  int64
	ReadBytes, WrBytes int64
}

// NewDevice creates a device from params.
func NewDevice(s *sim.Sim, p Params) *Device {
	if p.Capacity <= 0 {
		panic("media: capacity must be positive")
	}
	return &Device{
		params:  p,
		readCh:  sim.NewSharedBW(s, p.Name+"/read", p.ReadBW, p.FlowReadBW),
		writeCh: sim.NewSharedBW(s, p.Name+"/write", p.WriteBW, p.FlowWriteBW),
	}
}

// Read charges the virtual clock for reading size bytes.
func (d *Device) Read(p *sim.Proc, size int64) {
	d.ReadOps++
	d.ReadBytes += size
	p.Sleep(d.params.ReadLatency)
	d.readCh.Transfer(p, size)
}

// Write charges the virtual clock for writing size bytes.
func (d *Device) Write(p *sim.Proc, size int64) {
	d.WriteOps++
	d.WrBytes += size
	p.Sleep(d.params.WriteLatency)
	d.writeCh.Transfer(p, size)
}

// Alloc reserves size bytes, failing with ErrNoSpace when the device is full.
func (d *Device) Alloc(size int64) error {
	if size < 0 {
		panic("media: negative allocation")
	}
	if d.used+size > d.params.Capacity {
		return fmt.Errorf("%w: %s used %d + %d > %d", ErrNoSpace, d.params.Name, d.used, size, d.params.Capacity)
	}
	d.used += size
	return nil
}

// Used returns currently allocated bytes.
func (d *Device) Used() int64 { return d.used }

// GiB is a binary gigabyte.
const GiB = int64(1) << 30

// DCPMMInterleaved returns parameters for an AppDirect interleaved set of
// first-generation 256 GiB Optane DCPMMs, as fitted per socket on the
// NEXTGenIO nodes. Interleaving scales bandwidth close to linearly across
// modules while latency stays that of a single module. The per-module
// figures follow published measurements for first-generation media
// (~6.8 GB/s read, ~2.3 GB/s write sequential; ~170 ns load, ~90 ns
// buffered store) discounted for the DAOS server software path; the write
// path carries the full VOS + PMDK transaction overhead and lands well
// below raw media bandwidth, which is what lets a large client population
// saturate the write side (the regime where object-class load balance
// decides Figure 1b).
func DCPMMInterleaved(name string, modules int) Params {
	if modules <= 0 {
		panic("media: module count must be positive")
	}
	return Params{
		Name:         name,
		Capacity:     int64(modules) * 256 * GiB,
		ReadLatency:  300 * time.Nanosecond,
		WriteLatency: 150 * time.Nanosecond,
		ReadBW:       float64(modules) * 5.0e9,
		WriteBW:      float64(modules) * 0.33e9,
		// A single xstream stream cannot saturate the interleave set.
		FlowReadBW:  6.0e9,
		FlowWriteBW: 3.0e9,
	}
}
