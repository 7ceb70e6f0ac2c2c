package main

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"github.com/conzone/conzone/internal/check"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/units"
)

// ioSpecs are the five I/O workloads. Devices are config.Paper() (96 zones
// of 16 MiB, 2 write buffers, 12 KiB L2P cache). The sim windows are sized
// so that each closes within about half of a run on 2 cores, set-up
// repetitions included, and so still inside it when the machine is slow.
var ioSpecs = []ioSpec{
	{name: "randread", window: 64, batch: 1024, queues: 1, prefill: 1 * units.GiB, warm: 200, simOpsPerSec: 2_000_000,
		gen: func(r *rig) generator { return &readGen{span: units.GiB / units.Sector} }},
	{name: "burstread", window: 64, batch: 64, queues: 1, prefill: 1 * units.GiB, warm: 120, simOpsPerSec: 700_000,
		gen: func(r *rig) generator { return &readGen{span: units.GiB / units.Sector, burst: true} }},
	{name: "l2pmiss", window: 64, batch: 1024, queues: 1, prefill: 1 * units.GiB, pageMap: true, warm: 100, simOpsPerSec: 1_000_000,
		gen: func(r *rig) generator { return &readGen{span: units.GiB / units.Sector} }},
	{name: "seqwrite", window: 16, batch: 8192, queues: 1, warm: 40, simOpsPerSec: 500_000,
		gen: func(r *rig) generator { return newSeqGen(r) }},
	{name: "gcmix", window: 16, batch: 8192, queues: 2, warm: 32, simOpsPerSec: 400_000,
		gen: func(r *rig) generator { return newMixGen(r) }},
}

func ioSpecByName(name string) (ioSpec, bool) {
	for _, s := range ioSpecs {
		if s.name == name {
			return s, true
		}
	}
	return ioSpec{}, false
}

// readGen issues 4 KiB random reads over the prefilled span. burst submits
// a whole window back to back and then drains it (doorbell batching), which
// is the shape that reaches the controller's read staging.
type readGen struct {
	span  int64
	burst bool
}

func (g *readGen) step(r *rig) {
	if g.burst && r.outstanding() >= r.spec.window {
		r.drain()
	}
	r.submit(0, host.Request{Op: host.OpRead, LBA: r.rng.intn(g.span), N: 1})
}

func (g *readGen) verify(*rig, *report) {} // timing-only media: nothing to read back

// headSectors is the part of a zone backed by its normal superblock; the
// rest of the power-of-two zone capacity is an SLC-resident alignment tail.
func headSectors(r *rig) int64 { return r.f.Geometry().SuperblockBytes() / units.Sector }

// seqGen writes stamped 4 KiB sectors sequentially through the head region
// of seqZones zones (the part backed by the zone's normal superblock, so
// nothing detours through SLC), resetting a zone when the stream wraps onto
// it. The warm-up laps the zones several times, so the media's payload
// slabs are being reused, not grown, when timing starts.
type seqGen struct {
	ar    *arena
	head  int64   // head-region sectors per zone
	wp    []int64 // local mirror of each zone's write pointer
	first int     // the seed picks the first of the seqZones zones
	cur   int     // index into the lap, 0..seqZones-1
}

const seqZones = 8

func newSeqGen(r *rig) *seqGen {
	g := &seqGen{ar: newArena(r.salt), head: headSectors(r), wp: make([]int64, r.f.NumZones())}
	g.first = int(r.rng.intn(int64(len(g.wp))))
	return g
}

func (g *seqGen) step(r *rig) {
	z := (g.first + g.cur) % len(g.wp)
	if g.wp[z] == g.head {
		r.submit(0, host.Request{Op: host.OpReset, Zone: z})
		g.wp[z] = 0
	}
	lba := int64(z)*r.f.ZoneCapSectors() + g.wp[z]
	r.submit(0, host.Request{Op: host.OpWrite, LBA: lba, Payloads: g.ar.payload(lba)})
	g.wp[z]++
	if g.wp[z] == g.head {
		g.cur = (g.cur + 1) % seqZones
	}
}

func (g *seqGen) verify(r *rig, rep *report) { verifyZones(r, rep, g.wp) }

// verifyZones reads back every sector below each zone's mirrored write
// pointer and checks its stamp.
func verifyZones(r *rig, rep *report, wp []int64) {
	zcap := r.f.ZoneCapSectors()
	for z, n := range wp {
		for off := int64(0); off < n; {
			cnt := n - off
			if cnt > 64 {
				cnt = 64
			}
			lba := int64(z)*zcap + off
			data, done, err := r.ctrl.Read(r.now, lba, cnt)
			rep.attempt(cnt)
			if err != nil {
				rep.failf("read back lba %d: %v", lba, err)
				off += cnt
				continue
			}
			r.now = done
			for i := int64(0); i < cnt; i++ {
				if data == nil || !stampOK(data[i], lba+i, r.salt) {
					rep.failf("stamp mismatch at lba %d", lba+i)
				}
			}
			r.ctrl.Recycle(data)
			off += cnt
		}
	}
}

// mixGen is the consumer mix: four zones share the two write buffers, every
// third write of a zone is followed by a zone flush (fsync-like), and about
// 30% of the operations are 4 KiB reads, on a second queue, of LBAs whose
// write completion has already been reaped. Reads are checked inline.
type mixGen struct {
	ar     *arena
	head   int64
	wp     [mixZones]int64 // sectors submitted per zone
	acked  [mixZones]int64 // sectors whose write completion was reaped
	stale  [mixZones]int64 // writes of the zone's previous lap still in flight
	writes [mixZones]int64 // writes since the zone's last flush
	next   int
	salt   uint64
	bad    int64
}

const mixZones = 4

func newMixGen(r *rig) *mixGen {
	g := &mixGen{ar: newArena(r.salt), head: headSectors(r), salt: r.salt}
	r.onReap = func(c *host.Completion) {
		switch c.Op {
		case host.OpWrite:
			// A zone's writes complete in order, so completions of the
			// lap before the last reset arrive first and are not counted.
			if g.stale[c.Zone] > 0 {
				g.stale[c.Zone]--
			} else {
				g.acked[c.Zone]++
			}
		case host.OpRead:
			if c.Err == nil && (c.Data == nil || !stampOK(c.Data[0], c.LBA, g.salt)) {
				g.bad++
			}
		}
	}
	return g
}

func (g *mixGen) step(r *rig) {
	zcap := r.f.ZoneCapSectors()
	if r.rng.next()%10 < 3 {
		z := int(r.rng.next() % mixZones)
		if n := g.acked[z]; n > 0 {
			r.submit(1, host.Request{Op: host.OpRead, LBA: int64(z)*zcap + r.rng.intn(n), N: 1})
			return
		}
	}
	z := g.next
	g.next = (g.next + 1) % mixZones
	if g.wp[z] == g.head {
		r.submit(0, host.Request{Op: host.OpReset, Zone: z})
		g.stale[z] += g.wp[z] - g.acked[z]
		g.wp[z], g.acked[z], g.writes[z] = 0, 0, 0
	}
	lba := int64(z)*zcap + g.wp[z]
	r.submit(0, host.Request{Op: host.OpWrite, LBA: lba, Payloads: g.ar.payload(lba)})
	g.wp[z]++
	g.writes[z]++
	if g.writes[z] == 3 {
		r.submit(0, host.Request{Op: host.OpFlush, Zone: z})
		g.writes[z] = 0
	}
}

func (g *mixGen) verify(r *rig, rep *report) {
	if g.bad > 0 {
		rep.Failed += g.bad
		rep.Failures = append(rep.Failures, fmt.Sprintf("%d inline reads returned a wrong stamp", g.bad))
	}
	verifyZones(r, rep, g.wp[:])
}

// setupClock times a workload's set-up. The first build gives the state
// the run measures. Later builds, whose results are dropped, are spread over
// the run, one every fifth of --seconds between batches or passes: on a
// shared machine slow phases last seconds, so repetitions made back to back
// all fall into one phase, while repetitions a few seconds apart sample
// several. A build reports how long each of its pieces took and setup_s is
// their bestSum over the repetitions; README.md has the numbers that made
// this the statistic and not the median of the repetitions' totals. Traced
// runs, which do not report it, and the smoke scale build once.
type setupClock[T any] struct {
	build func() (T, []float64, error)
	trace bool
	every time.Duration // 0: no repetitions
	next  time.Time
	reps  [][]float64 // per repetition, the seconds of each piece
	err   error       // first failed repetition
}

func startSetup[T any](o runOpts, build func() (T, []float64, error)) (T, *setupClock[T], error) {
	c := &setupClock[T]{build: build, trace: o.trace}
	if !o.trace && !o.small {
		c.every = o.duration() / 5
	}
	v, err := c.time()
	return v, c, err
}

// whole makes a build that cannot be cut up report itself as one piece.
func whole[T any](build func() (T, error)) func() (T, []float64, error) {
	return func() (T, []float64, error) {
		l := startLaps()
		v, err := build()
		l.lap()
		return v, l.secs, err
	}
}

func (c *setupClock[T]) time() (T, error) {
	t0 := time.Now()
	v, pieces, err := c.build()
	c.reps = append(c.reps, pieces)
	c.next = t0.Add(c.every)
	return v, err
}

// tick makes one more timed set-up when its turn has come. Its time counts
// towards --seconds, so a run is no longer for it.
func (c *setupClock[T]) tick() {
	if c.every == 0 || c.err != nil || time.Now().Before(c.next) {
		return
	}
	// Untimed: drop what the last repetition left behind and hand free
	// memory back, so that this one starts like the first, from a heap with
	// nothing retained, and not from whatever the scavenger got round to.
	debug.FreeOSMemory()
	_, c.err = c.time()
}

// report records setup_s and counts a failed repetition.
func (c *setupClock[T]) report(rep *report) {
	if !c.trace {
		rep.setBestSum("setup_s", c.reps, 1)
		rep.check("set-up repetitions", c.err)
	}
}

// finish drains the rig, runs the correctness gate and folds the rig's own
// failures into the report: every command is an attempt.
func (r *rig) finish(gen generator, rep *report, verify bool) {
	r.drain()
	done, err := r.ctrl.FlushAll(r.now)
	rep.check("final flush", err)
	if err == nil {
		r.now = done
	}
	rep.attempt(r.cmds)
	rep.Failed += r.errs
	if r.firstErr != "" {
		rep.Failures = append(rep.Failures, r.firstErr)
	}
	if verify {
		gen.verify(r, rep)
	}
	rep.check("check.Audit", check.Audit(r.f))
	rep.check("check.AuditHost", check.AuditHost(r.ctrl))
	var lost error
	if n := r.f.Stats().LostAckSectors; n != 0 {
		lost = fmt.Errorf("%d acknowledged sectors lost", n)
	}
	rep.check("LostAckSectors", lost)
}

// simWindow derives the virtual-time numbers of the closed window.
func (r *rig) simWindow(m measured) (usPerOp, latUs float64, err error) {
	if r.reaped < r.simEnd || r.latN != m.simOps {
		return 0, 0, errors.New("the virtual-time window did not close")
	}
	elapsed := r.end.now.Sub(r.start.now)
	return float64(elapsed) / 1e3 / float64(m.simOps), float64(r.latSum) / 1e3 / float64(r.latN), nil
}

// runIOUntraced is the timed run of one I/O workload: set-up repeated for
// its median, then batches for o.seconds, then the correctness gate.
func runIOUntraced(spec ioSpec, o runOpts) *report {
	rep := newReport(spec.name, o)
	type ready struct {
		r   *rig
		gen generator
	}
	// Set-up is everything before the first timed command: building the
	// device, the prefill, and the warm-up batches.
	rd, setup, err := startSetup(o, func() (ready, []float64, error) {
		r, err := buildRig(spec, o, nil)
		if err != nil {
			return ready{}, nil, err
		}
		gen := spec.gen(r)
		r.warm(gen)
		return ready{r, gen}, r.laps.secs, nil
	})
	if err != nil {
		rep.check("set-up", err)
		return rep
	}
	r, gen := rd.r, rd.gen
	simOps := o.simOps(spec)
	traced := o
	traced.trace = true
	m := r.measure(gen, simOps, traced.simOps(spec), o.duration(), setup.tick)
	setup.report(rep)
	r.finish(gen, rep, true)

	rep.setBest("wall_ns_per_op", m.perOp)
	usPerOp, latUs, err := r.simWindow(m)
	rep.check("virtual-time window", err)
	rep.set("sim_us_per_op", usPerOp)
	rep.set("sim_lat_us", latUs)
	rep.set("host_mem_mib", peakRSSMiB())
	rep.Info["device"] = "config.Paper()"
	rep.Info["sim_window_ops"] = fmt.Sprint(simOps)
	rep.Info["sim_digest"] = fmt.Sprintf("%016x", r.simDigest)
	rep.Info["trace_digest"] = fmt.Sprintf("%016x", r.chkDigest) // must equal the traced run's
	rep.Info["commands"] = fmt.Sprint(r.cmds)
	return rep
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
