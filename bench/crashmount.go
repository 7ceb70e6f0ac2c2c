package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	conzone "github.com/conzone/conzone"
	"github.com/conzone/conzone/internal/units"
)

// crashmount measures durability and the costs that are not steady state:
// ftl.Recover after a power cut, image save and load, and their memory. It
// drives the public conzone.Device, as a user of the library would.
//
// One iteration: fill crashFullZones zones completely (their alignment
// tails land in SLC) and part of one more with stamped 32 KiB writes and a
// zone flush every crashFlushEvery writes (each leaves a partial program
// unit staged in SLC); arm a power cut while the last zone is being
// written; Remount; read back; SaveImage; OpenImage; read back; audit.
//
// Durability oracle. A write completion only says the data reached the
// volatile write buffer; what the device promises to keep is what a flush
// whose completion was reaped before the cut covered. So for every zone the
// recovered write pointer must lie between that flushed floor and the
// sectors submitted, and every sector below it must carry its stamp.
const (
	crashFullZones  = 2
	crashWriteSecs  = 8  // sectors per write command
	crashFlushEvery = 64 // writes between zone flushes
	crashWindow     = 16
	crashMinIters   = 3 // iterations of every run, whatever --seconds says
)

type crashZone struct {
	submitted int64 // sectors submitted
	floor     int64 // sectors covered by a reaped, successful flush
}

// crashSource is the stamped data every iteration writes: sector i of the
// buffer belongs to LBA i (zones are filled from LBA 0 up). It is built once,
// as part of the set-up.
type crashSource struct {
	sectors [][]byte
	salt    uint64
}

func newCrashSource(sectors int64, salt uint64) *crashSource {
	s := &crashSource{sectors: sectorPayloads(int(sectors)), salt: salt}
	for lba, p := range s.sectors {
		stamp(p, int64(lba), salt)
	}
	return s
}

// crashFill is one iteration's fill phase.
type crashFill struct {
	dev     *conzone.Device
	zcap    int64
	src     *crashSource
	zones   []crashZone
	flushes map[conzone.Tag]crashMark
	rng     *rng
	now     conzone.Time // the submitter's virtual clock, as in the I/O driver
	inFlt   int
	cmds    int64
	reaped  int64
	latSum  int64 // virtual ns, successful commands
	latN    int64
	dead    bool // a completion reported power loss
	other   int64
	firstEr string
}

// crashMark is what a flush in flight will have made durable.
type crashMark struct {
	zone int
	upTo int64
}

func (c *crashFill) reap() {
	comps := c.dev.Poll(0, 1)
	if len(comps) == 0 {
		c.other++
		c.firstEr = "no completion with commands in flight"
		c.inFlt = 0
		return
	}
	for i := range comps {
		cp := &comps[i]
		c.inFlt--
		c.reaped++
		if cp.Done > c.now {
			c.now = cp.Done
		}
		switch {
		case cp.Status == conzone.StatusPowerLoss:
			c.dead = true
		case cp.Err != nil:
			c.other++
			if c.firstEr == "" {
				c.firstEr = fmt.Sprintf("%v zone %d: %v", cp.Op, cp.Zone, cp.Err)
			}
		default:
			c.latSum += int64(cp.Latency())
			c.latN++
			if m, ok := c.flushes[cp.Tag]; ok {
				c.zones[m.zone].floor = m.upTo
			}
		}
		delete(c.flushes, cp.Tag)
	}
}

func (c *crashFill) submit(req conzone.HostRequest, mark *crashMark) {
	for c.inFlt >= crashWindow {
		c.reap()
	}
	if c.dead {
		return
	}
	tag, err := c.dev.SubmitAt(c.now, 0, req)
	c.now += conzone.Time(thinkBase + c.rng.next()%thinkJitter)
	if err != nil {
		c.other++
		if c.firstEr == "" {
			c.firstEr = fmt.Sprintf("submit %v: %v", req.Op, err)
		}
		return
	}
	if mark != nil {
		c.flushes[tag] = *mark
	}
	c.inFlt++
	c.cmds++
}

// write fills zone z up to sectors, flushing every crashFlushEvery writes
// and at the end. armAt > 0 arms the power cut once that many sectors of
// the zone have been submitted.
func (c *crashFill) write(z int, sectors, armAt int64) {
	zs := &c.zones[z]
	writes := 0
	for zs.submitted < sectors && !c.dead {
		n := min(int64(crashWriteSecs), sectors-zs.submitted)
		lba := int64(z)*c.zcap + zs.submitted
		c.submit(conzone.HostRequest{Op: conzone.OpWrite, LBA: lba, Payloads: c.src.sectors[lba : lba+n]}, nil)
		zs.submitted += n
		writes++
		if writes%crashFlushEvery == 0 || zs.submitted == sectors {
			c.submit(conzone.HostRequest{Op: conzone.OpFlush, Zone: z}, &crashMark{zone: z, upTo: zs.submitted})
		}
		if armAt > 0 && zs.submitted >= armAt {
			// Cut 50 virtual us from now: the next media operation that
			// would complete after that instant is torn.
			c.dev.ArmPowerCut(c.now.Add(50 * time.Microsecond))
			armAt = 0
		}
	}
}

// readBack checks every sector below each zone's recovered write pointer
// and that the pointer respects the oracle. It returns the sectors read.
func (c *crashFill) readBack(dev *conzone.Device, rep *report, what string) int64 {
	var total int64
	for z := range c.zones {
		info, err := dev.Zone(z)
		rep.check(what+": zone report", err)
		if err != nil {
			continue
		}
		written := info.Written()
		zs := c.zones[z]
		var bound error
		if written < zs.floor || written > zs.submitted {
			bound = fmt.Errorf("zone %d recovered %d sectors, flushed floor %d, submitted %d", z, written, zs.floor, zs.submitted)
		}
		rep.check(what+": durable extent", bound)
		for off := int64(0); off < written; off += 64 {
			n := min(int64(64), written-off)
			lba := int64(z)*c.zcap + off
			data, err := dev.Read(lba*units.Sector, int(n*units.Sector))
			rep.attempt(n)
			if err != nil {
				rep.failf("%s: read lba %d: %v", what, lba, err)
				continue
			}
			for i := int64(0); i < n; i++ {
				if !stampOK(data[i*units.Sector:(i+1)*units.Sector], lba+i, c.src.salt) {
					rep.failf("%s: stamp mismatch at lba %d", what, lba+i)
				}
			}
		}
		total += written
	}
	return total
}

// crashIter is what one iteration measured.
type crashIter struct {
	recover, save, open, audit time.Duration
	recoverSim                 time.Duration
	durable                    int64 // sectors that survived
	imageBytes                 int64
	simUsPerOp, simLatUs       float64
	// phases are the seconds of the iteration's consecutive pieces: device
	// open, fill, remount, read-back, save, reopen, read-back, audit (each
	// with the checks that follow it). wall_ns_per_op is their bestSum.
	phases []float64
}

// crashExtent returns the zones an iteration fills completely and the
// sectors it writes into the next one.
func crashExtent(o runOpts, zcap int64) (full int, partial int64) {
	if o.small {
		return 0, zcap / 2
	}
	return crashFullZones, zcap * 3 / 4
}

func crashIteration(rep *report, tr *tracer, o runOpts, src *crashSource, iter int, r *rng) (crashIter, bool) {
	var it crashIter
	l := startLaps()
	cfg := conzone.PaperConfig()
	dev, err := conzone.Open(cfg)
	if err == nil {
		err = dev.ConfigureQueues(1, crashWindow+2)
	}
	rep.check("open device", err)
	if err != nil {
		return it, false
	}
	zcap := dev.ZoneBytes() / units.Sector
	full, partial := crashExtent(o, zcap)
	l.lap()
	c := &crashFill{dev: dev, zcap: zcap, src: src, zones: make([]crashZone, full+1), flushes: map[conzone.Tag]crashMark{}, rng: r}
	span(tr, "fill", func() {
		for z := 0; z < full; z++ {
			c.write(z, zcap, 0)
		}
		// The seed picks where in the last zone the power fails, within a
		// narrow band so that iterations stay comparable.
		armAt := partial/2 + r.intn(partial/8)
		c.write(full, partial, armAt)
		for c.inFlt > 0 {
			c.reap()
		}
	})
	rep.attempt(c.cmds)
	if c.other > 0 {
		rep.Failed += c.other
		rep.Failures = append(rep.Failures, c.firstEr)
	}
	var cut error
	if !dev.PowerLost() {
		cut = fmt.Errorf("the armed power cut never fired")
	}
	rep.check("power cut", cut)
	var lost error
	if n := dev.Stats().FTL.LostAckSectors; n != 0 {
		lost = fmt.Errorf("%d acknowledged sectors lost", n)
	}
	rep.check("LostAckSectors", lost)
	if c.latN > 0 {
		it.simUsPerOp = float64(c.now) / 1e3 / float64(c.reaped)
		it.simLatUs = float64(c.latSum) / 1e3 / float64(c.latN)
	}

	before := dev.Now()
	l.lap()
	it.recover = span(tr, "ftl.recover", func() { err = dev.Remount() })
	rep.check("Remount", err)
	if err != nil {
		return it, false
	}
	it.recoverSim = dev.Now() - before
	l.lap()
	it.durable = c.readBack(dev, rep, "after remount")
	rep.check("CheckInvariants after remount", dev.CheckInvariants())

	path := filepath.Join(o.tmpDir, fmt.Sprintf("crashmount-%d-%d.img", os.Getpid(), iter))
	defer os.Remove(path)
	l.lap()
	it.save = span(tr, "persist.save", func() { err = dev.SaveImage(path) })
	rep.check("SaveImage", err)
	if err != nil {
		return it, false
	}
	if st, err := os.Stat(path); err == nil {
		it.imageBytes = st.Size()
	}
	l.lap()
	var reopened *conzone.Device
	it.open = span(tr, "persist.open", func() { reopened, err = conzone.OpenImage(cfg, path) })
	rep.check("OpenImage", err)
	if err != nil {
		return it, false
	}
	l.lap()
	var again error
	if n := c.readBack(reopened, rep, "after reopen"); n != it.durable {
		again = fmt.Errorf("%d sectors durable after reopen, %d after remount", n, it.durable)
	}
	rep.check("reopened extent", again)
	l.lap()
	it.audit = span(tr, "check.audit", func() { err = reopened.CheckInvariants() })
	rep.check("CheckInvariants after reopen", err)
	l.lap()
	it.phases = l.secs
	return it, it.durable > 0
}

func runCrashmount(o runOpts) *report {
	rep := newReport("crashmount", o)
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		rep.check("temporary directory", err)
		return rep
	}
	// Set-up: open a device and stamp the data the iterations will write.
	// Every iteration opens a device of its own, so there is nothing a
	// warm-up iteration could leave behind for the timed ones.
	src, setup, err := startSetup(o, whole(func() (*crashSource, error) {
		dev, err := conzone.Open(conzone.PaperConfig())
		if err != nil {
			return nil, err
		}
		zcap := dev.ZoneBytes() / units.Sector
		full, partial := crashExtent(o, zcap)
		return newCrashSource(int64(full)*zcap+partial, o.seed), nil
	}))
	if err != nil {
		rep.check("set-up", err)
		return rep
	}

	var tr *tracer
	budget := o.duration()
	if o.trace {
		tr = newTracer(levelAll)
		budget -= unitsTime
	}
	r := newRNG(o.seed)
	var its []crashIter
	began := time.Now()
	for n := 0; n < crashMinIters || time.Since(began) < budget; n++ {
		setup.tick()
		runtime.GC() // untimed: one iteration's garbage is not charged to the next
		it, ok := crashIteration(rep, tr, o, src, n, r)
		if !ok {
			break
		}
		its = append(its, it)
		if o.small {
			break
		}
	}
	setup.report(rep)
	if len(its) == 0 {
		rep.failf("no iteration completed")
		return rep
	}
	rep.Info["iterations"] = fmt.Sprint(len(its))
	col := func(f func(crashIter) float64) []float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = f(it)
		}
		return xs
	}
	mib := func(it crashIter) float64 { return float64(it.durable*units.Sector) / float64(units.MiB) }
	// The virtual-time numbers come from the iterations every run makes, so
	// they repeat exactly for one seed however many more the machine fits in.
	sim := func(f func(crashIter) float64) []float64 { return col(f)[:min(crashMinIters, len(its))] }

	if !o.trace {
		phases := make([][]float64, len(its))
		for i, it := range its {
			phases[i] = it.phases
		}
		rep.setBestSum("wall_ns_per_op", phases, 1e9)
		rep.setMedian("sim_us_per_op", sim(func(it crashIter) float64 { return it.simUsPerOp }))
		rep.setMedian("sim_lat_us", sim(func(it crashIter) float64 { return it.simLatUs }))
		rep.set("host_mem_mib", peakRSSMiB())
		return rep
	}
	rep.setBest("ftl.recover_ms", col(func(it crashIter) float64 { return float64(it.recover) / 1e6 }))
	rep.setBest("ftl.recover_ms_per_gib_written", col(func(it crashIter) float64 { return float64(it.recover) / 1e6 / (mib(it) / 1024) }))
	rep.setMedian("ftl.recover_sim_ms", sim(func(it crashIter) float64 { return float64(it.recoverSim) / 1e6 }))
	rep.setBestRate("persist.save_mib_per_s", col(func(it crashIter) float64 { return mib(it) / it.save.Seconds() }))
	rep.setBestRate("persist.open_mib_per_s", col(func(it crashIter) float64 { return mib(it) / it.open.Seconds() }))
	rep.setBest("persist.save_ns_per_sector", col(func(it crashIter) float64 { return float64(it.save) / float64(it.durable) }))
	rep.setBest("persist.open_ns_per_sector", col(func(it crashIter) float64 { return float64(it.open) / float64(it.durable) }))
	rep.setMedian("persist.image_bytes_per_written_byte", col(func(it crashIter) float64 { return float64(it.imageBytes) / float64(it.durable*units.Sector) }))
	rep.setBest("check.audit_ms", col(func(it crashIter) float64 { return float64(it.audit) / 1e6 }))
	if !o.small {
		if _, err := measureUnits(rep, o.seed); err != nil {
			rep.check("unit costs", err)
		}
	}
	rep.check("Chrome trace", tr.writeChrome(o.outDir, "crashmount"))
	return rep
}
