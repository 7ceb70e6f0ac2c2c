// Package emubench measures the emulator's own wall-clock throughput: how
// fast the host interface + FTL + media model execute I/O in real time,
// independent of the virtual-time results they produce. ConZone follows the
// FEMU delay-emulation model — no real sleeping — so the emulator's wall
// clock is the ceiling on how large a workload can be replayed, and this
// package is the benchmark gate that keeps that ceiling from regressing.
package emubench

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// Spec names one point of the throughput benchmark family.
type Spec struct {
	Workload string // "seqwrite", "randread", "burstread", "randwrite" or "gcheavy"
	QD       int    // outstanding commands the driver keeps in flight
}

// Name returns the benchmark sub-name, e.g. "randread/qd16".
func (s Spec) Name() string {
	return fmt.Sprintf("%s/qd%d", s.Workload, s.QD)
}

// Specs returns the canonical benchmark family: every workload at queue
// depths 1 and 16.
func Specs() []Spec {
	var out []Spec
	for _, w := range []string{"seqwrite", "randread", "burstread", "randwrite", "gcheavy"} {
		for _, qd := range []int{1, 16} {
			out = append(out, Spec{Workload: w, QD: qd})
		}
	}
	return out
}

// opOverhead is the virtual submission gap between commands of the driver
// loop, mirroring the workload runner's per-op host overhead. It keeps the
// virtual clock advancing so queue-depth effects (overlap at QD16,
// serialization at QD1) behave as in the real workloads.
const opOverhead = sim.Duration(1000) // 1 µs

// runner drives one device through one workload, one step per benchmark
// iteration, keeping up to QD commands outstanding.
type runner struct {
	tb   testing.TB
	f    *ftl.FTL
	ctrl *host.Controller

	qd       int
	now      sim.Time
	inflight int
	compBuf  []host.Completion

	// The write workloads stay inside each zone's head region ([0, sbCap)
	// of the zone, the part backed by the normal superblock): the Small
	// geometry's SLC region cannot hold every zone's alignment tail at
	// once, and a benchmark must never run the staging area out of space.
	// SLC staging still gets exercised — through premature-flush partials
	// and gcheavy's forced per-write flushes — but only transiently.
	workload string
	rng      *rand.Rand
	zoneCap  int64
	sbCap    int64 // head-region sectors per zone (no SLC alignment tail)
	numZones int
	wp       []int64 // local mirror of each zone's write pointer
	seqZone  int     // seqwrite current zone
	seqOff   int64   // seqwrite offset within the zone's head region
	gczone   int     // gcheavy round-robin zone

	// nilPayload is the shared one-sector container for timing-only writes.
	// Its single entry is nil and never mutated, so every queued command may
	// alias it.
	nilPayload [][]byte

	// databuf is the rotating arena for data-carrying write payloads and
	// dataConts the matching ring of one-sector payload containers. The
	// device retains a write's payload slices until the data reaches media
	// (the volatile write buffer holds references, per the Write contract),
	// so a slot may only be reused once its data has certainly been flushed.
	// Retention is bounded by the write buffers' total capacity plus the
	// commands still in flight — far below the ring sizes used — so rotation
	// keeps the steady-state driver allocation-free without ever handing the
	// device a slice it still holds. See dataPayload.
	databuf   []byte
	dataOff   int64
	dataConts [][][]byte
	dataNext  int
}

// newRunner builds a small device, applies the workload's prefill, and
// returns a driver positioned at steady state.
func newRunner(tb testing.TB, spec Spec) *runner {
	cfg := config.Small()
	f, err := ftl.New(cfg.Geometry, cfg.Latency, cfg.FTL)
	if err != nil {
		tb.Fatalf("emubench: build FTL: %v", err)
	}
	ctrl, err := host.New(f, host.Config{Queues: 1, Depth: spec.QD + 2})
	if err != nil {
		tb.Fatalf("emubench: build controller: %v", err)
	}
	r := &runner{
		tb:         tb,
		f:          f,
		ctrl:       ctrl,
		qd:         spec.QD,
		workload:   spec.Workload,
		rng:        rand.New(rand.NewSource(0x5EED)),
		zoneCap:    f.ZoneCapSectors(),
		numZones:   f.NumZones(),
		wp:         make([]int64, f.NumZones()),
		compBuf:    make([]host.Completion, 0, 4),
		nilPayload: make([][]byte, 1),
	}
	r.sbCap = f.Geometry().SuperblockBytes() / units.Sector

	if spec.Workload == "randread" || spec.Workload == "burstread" {
		// Prefill every zone's head region (full program units, no SLC
		// detours) so random reads hit programmed, mapped media.
		pu := f.Geometry().ProgramUnit / units.Sector
		for z := 0; z < r.numZones; z++ {
			base := int64(z) * r.zoneCap
			for off := int64(0); off < r.sbCap; off += pu {
				payloads := make([][]byte, pu)
				if _, err := ctrl.Write(r.now, base+off, payloads); err != nil {
					tb.Fatalf("emubench: prefill zone %d off %d: %v", z, off, err)
				}
			}
		}
		if _, err := ctrl.FlushAll(r.now); err != nil {
			tb.Fatalf("emubench: prefill flush: %v", err)
		}
	}
	return r
}

// reapOne retires the earliest-finishing outstanding command, advancing the
// driver clock to its completion (the submitter cannot run ahead of its
// oldest completion once the window is full).
func (r *runner) reapOne() {
	comps := r.ctrl.PollInto(0, 1, r.compBuf[:0])
	if len(comps) == 0 {
		r.tb.Fatalf("emubench: no completion with %d commands in flight", r.inflight)
	}
	for i := range comps {
		c := &comps[i]
		if c.Err != nil {
			r.tb.Fatalf("emubench: %v lba %d: %v", c.Op, c.LBA, c.Err)
		}
		if c.Done > r.now {
			r.now = c.Done
		}
		if c.Data != nil {
			r.ctrl.Recycle(c.Data)
		}
		r.inflight--
	}
}

// submit enqueues one command, first reaping until a window slot is free.
func (r *runner) submit(req host.Request) {
	for r.inflight >= r.qd {
		r.reapOne()
	}
	if _, err := r.ctrl.Submit(r.now, 0, req); err != nil {
		r.tb.Fatalf("emubench: submit %v lba %d: %v", req.Op, req.LBA, err)
	}
	r.inflight++
	r.now = r.now.Add(opOverhead)
}

// dataPayload returns a one-sector payload carrying real bytes. Storage is
// carved from a rotating arena — the per-op cost is a copy-free slice
// header, matching how a real host cycles through its own pinned buffer
// pool — and the payload container comes from a ring sized well past the
// submission window, so neither is ever reused while the device may still
// reference it (see the databuf field comment for the retention bound).
func (r *runner) dataPayload(lba int64) [][]byte {
	const arenaSlots = 256
	if r.databuf == nil {
		r.databuf = make([]byte, arenaSlots*units.Sector)
		r.dataConts = make([][][]byte, arenaSlots)
		for i := range r.dataConts {
			r.dataConts[i] = make([][]byte, 1)
		}
	}
	if r.dataOff+units.Sector > int64(len(r.databuf)) {
		r.dataOff = 0
	}
	s := r.databuf[r.dataOff : r.dataOff+units.Sector : r.dataOff+units.Sector]
	r.dataOff += units.Sector
	s[0] = byte(lba)
	s[len(s)-1] = byte(lba >> 8)
	p := r.dataConts[r.dataNext]
	r.dataNext = (r.dataNext + 1) % arenaSlots
	p[0] = s
	return p
}

// step issues one workload operation (plus any bookkeeping commands it
// needs, such as a wrap reset or a gcheavy flush).
func (r *runner) step() {
	switch r.workload {
	case "seqwrite":
		zone := r.seqZone
		if r.seqOff == 0 && r.wp[zone] > 0 {
			r.submit(host.Request{Op: host.OpReset, Zone: zone})
			r.wp[zone] = 0
		}
		lba := int64(zone)*r.zoneCap + r.seqOff
		r.submit(host.Request{Op: host.OpWrite, LBA: lba, Payloads: r.dataPayload(lba)})
		r.wp[zone]++
		r.seqOff++
		if r.seqOff == r.sbCap {
			r.seqOff = 0
			r.seqZone = (r.seqZone + 1) % r.numZones
		}
	case "randread":
		zone := r.rng.Intn(r.numZones)
		lba := int64(zone)*r.zoneCap + r.rng.Int63n(r.sbCap)
		r.submit(host.Request{Op: host.OpRead, LBA: lba, N: 1})
	case "burstread":
		// Random reads submitted QD at a time with no polling in between —
		// the doorbell-batching shape of a host that rings once per batch.
		// Reads still dispatch at submit: this is randread with batched reaping.
		if r.inflight >= r.qd {
			r.drain()
		}
		zone := r.rng.Intn(r.numZones)
		lba := int64(zone)*r.zoneCap + r.rng.Int63n(r.sbCap)
		r.submit(host.Request{Op: host.OpRead, LBA: lba, N: 1})
	case "randwrite":
		zone := r.rng.Intn(r.numZones)
		if r.wp[zone] == r.sbCap {
			r.submit(host.Request{Op: host.OpReset, Zone: zone})
			r.wp[zone] = 0
		}
		lba := int64(zone)*r.zoneCap + r.wp[zone]
		r.submit(host.Request{Op: host.OpWrite, LBA: lba, Payloads: r.nilPayload})
		r.wp[zone]++
	case "gcheavy":
		// Single-sector writes, each force-flushed: every sector detours
		// through SLC staging (partial-unit flushes), completing units
		// combine back, and the alignment tails plus constant staging churn
		// keep the SLC garbage collector busy. Round-robin over more zones
		// than write buffers adds premature-flush evictions.
		zone := r.gczone
		r.gczone = (r.gczone + 1) % 4
		if r.wp[zone] == r.sbCap {
			r.submit(host.Request{Op: host.OpReset, Zone: zone})
			r.wp[zone] = 0
		}
		lba := int64(zone)*r.zoneCap + r.wp[zone]
		r.submit(host.Request{Op: host.OpWrite, LBA: lba, Payloads: r.nilPayload})
		r.submit(host.Request{Op: host.OpFlush, Zone: zone})
		r.wp[zone]++
	default:
		r.tb.Fatalf("emubench: unknown workload %q", r.workload)
	}
}

// drain retires every outstanding command.
func (r *runner) drain() {
	for r.inflight > 0 {
		r.reapOne()
	}
}

// Bench returns the benchmark function for one spec, usable both from
// bench tests (b.Run) and from testing.Benchmark in the selfbench exporter.
func Bench(spec Spec) func(*testing.B) {
	return func(b *testing.B) {
		r := newRunner(b, spec)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.step()
		}
		b.StopTimer()
		r.drain()
	}
}
