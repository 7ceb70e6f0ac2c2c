package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/stats"
	"github.com/conzone/conzone/internal/telemetry"
	"github.com/conzone/conzone/internal/units"
)

// The I/O driver is a closed loop: one submitter goroutine keeps a fixed
// window of commands outstanding and advances its virtual clock to each
// completion it reaps (the internal/emubench discipline). The program under
// test only ever sees generated requests: addresses and think times come
// from the benchmark's own generator, seeded by -seed.

const (
	lapOps       = 8192 // commands per warm-up piece, and the smallest virtual-time window
	prefillLap   = 128  // prefill commands per timed piece of the set-up
	thinkBase    = 512  // virtual ns between submissions: thinkBase + [0, thinkJitter)
	thinkJitter  = 1024
	stampSalt    = 0x9E3779B97F4A7C15
	arenaSectors = 1024 // rotating payload arena; far above buffers + window
)

// rng is the benchmark's own generator (xorshift64*), so the generated
// inputs do not change when the emulator's internals do.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	// splitmix64 scramble: nearby seeds give unrelated streams, never 0.
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x2545F4914F6CDD1D
	}
	return &rng{s: z}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// intn returns a value in [0, n) by multiply-shift (no division on the hot path).
func (r *rng) intn(n int64) int64 {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int64(hi)
}

// stamp marks a payload sector with its LBA so read-back can be verified.
func stamp(p []byte, lba int64, salt uint64) {
	v := uint64(lba)*stampSalt ^ salt
	binary.LittleEndian.PutUint64(p[:8], v)
	binary.LittleEndian.PutUint64(p[len(p)-8:], ^v)
}

func stampOK(p []byte, lba int64, salt uint64) bool {
	if int64(len(p)) != units.Sector {
		return false
	}
	v := uint64(lba)*stampSalt ^ salt
	return binary.LittleEndian.Uint64(p[:8]) == v && binary.LittleEndian.Uint64(p[len(p)-8:]) == ^v
}

// arena hands out stamped one-sector payloads from a rotating buffer. The
// device keeps references to a write's payload until the data reaches
// media, which is bounded by the write buffers plus the window — far below
// arenaSectors — so a slot is never reused while the device may hold it.
type arena struct {
	buf   []byte
	conts [][][]byte
	next  int
	salt  uint64
}

func newArena(salt uint64) *arena {
	a := &arena{buf: make([]byte, arenaSectors*units.Sector), conts: make([][][]byte, arenaSectors), salt: salt}
	for i := range a.conts {
		a.conts[i] = make([][]byte, 1)
	}
	return a
}

func (a *arena) payload(lba int64) [][]byte {
	i := a.next
	a.next = (a.next + 1) % arenaSectors
	off := int64(i) * units.Sector
	s := a.buf[off : off+units.Sector : off+units.Sector]
	stamp(s, lba, a.salt)
	c := a.conts[i]
	c[0] = s
	return c
}

// generator is one I/O workload's request stream.
type generator interface {
	// step issues one workload operation (and any bookkeeping commands it
	// needs, such as a wrap reset or a flush).
	step(r *rig)
	// verify reads back what the workload wrote and counts mismatches.
	verify(r *rig, rep *report)
}

// ioSpec describes one I/O workload.
type ioSpec struct {
	name    string
	window  int
	queues  int
	pageMap bool // ftl.Params.DisableAggregation (the Fig. 7 page-mapping arm)
	// batch is the number of commands timed together. The fastest batch of
	// a run is what wall_ns_per_op reports, and a batch is only as fast as
	// the machine was quiet for all of it, so it is as short as the workload
	// allows: the write workloads need 8192 commands to hold their periodic
	// work (buffer flushes, zone resets, SLC collections) in every batch; the
	// uniform read loops need 1024; burstread times one burst of a window,
	// because its drain hands work to the shard workers' threads and a
	// stretch of bursts without one slow hand-over gets rare on a busy host.
	batch   int64
	prefill int64 // bytes written (timing-only) before the run
	// warm is the number of untimed pieces of lapOps commands before the
	// measured region, about a quarter of a second of each workload. They
	// bring caches, buffers, garbage collection and the media's payload slabs
	// to steady state, and they make up most of the set-up, so that setup_s
	// mostly times code in the state the run measures it in: a machine's
	// slow phases stretch cold code, which is waiting for memory, several
	// times more than they stretch warm code.
	warm int
	// simOpsPerSec fixes the virtual-time window: simOpsPerSec * -seconds
	// commands after the warm-up. It is a constant, so every commit does
	// identical work inside the window and the sim_* numbers repeat exactly.
	simOpsPerSec int64
	gen          func(r *rig) generator
}

// snapshot is the counter state read before and after the measured window.
type snapshot struct {
	now        sim.Time
	tel        telemetry.Stats
	reserves   int64
	dispatched int64
	mallocs    uint64
	chipUtil   float64 // busiest chip / channel so far, against the engine's clock
	chanUtil   float64
}

// rig is one device under test plus the submitter's state.
type rig struct {
	spec  ioSpec
	cfg   config.DeviceConfig
	f     *ftl.FTL
	ctrl  *host.Controller
	tr    *tracer        // nil in untraced passes
	tb    *tracedBackend // nil in untraced passes
	warmN int            // untimed pieces of lapOps commands before measuring
	laps  *laps          // the set-up's pieces: build, prefill chunks, warm-up batches
	rng   *rng
	salt  uint64

	now      sim.Time
	inflight [2]int
	comps    []host.Completion
	cmds     int64 // commands submitted
	reaped   int64
	stepTag  host.Tag // last tag the controller handed out (tags count up from 1)

	// digest folds every completion's (Tag, Done, Status) in reap order.
	digest    uint64
	simEnd    int64 // reaped count that closes the virtual-time window
	simDigest uint64
	chkEnd    int64 // reaped count of the traced run's (shorter) window
	chkDigest uint64
	recording bool
	lat       *stats.Histogram // latency and queue delay: traced passes only
	qdelay    *stats.Histogram
	latSum    int64 // exact sum of virtual latencies in the window
	latN      int64
	start     snapshot
	end       snapshot

	onReap    func(c *host.Completion) // gcmix tracks acked writes
	queueFull int64
	errs      int64
	firstErr  string
}

// buildRig builds the device and its prefill. A tracer that records ftl
// spans wraps the FTL in the timing backend.
func buildRig(spec ioSpec, o runOpts, tr *tracer) (*rig, error) {
	l := startLaps()
	cfg := config.Paper()
	cfg.FTL.DisableAggregation = spec.pageMap
	f, err := ftl.New(cfg.Geometry, cfg.Latency, cfg.FTL)
	if err != nil {
		return nil, fmt.Errorf("build FTL: %w", err)
	}
	r := &rig{spec: spec, cfg: cfg, f: f, tr: tr, laps: l, rng: newRNG(o.seed), salt: o.seed, warmN: spec.warm,
		comps: make([]host.Completion, 0, 4), lat: stats.NewHistogram(), qdelay: stats.NewHistogram()}
	if o.small {
		r.warmN = 2
	}
	var be host.Backend = f
	if tr != nil && tr.levels&levelFTL != 0 {
		// Passes that record no ftl spans run over the bare FTL.
		r.tb = &tracedBackend{be: f, tr: tr, zcap: f.ZoneCapSectors(), zones: make([]tagFIFO, f.NumZones())}
		be = r.tb
	}
	r.ctrl, err = host.New(be, host.Config{Queues: spec.queues, Depth: spec.window + 2})
	if err != nil {
		return nil, fmt.Errorf("build controller: %w", err)
	}
	l.lap()
	if err := r.prefill(spec.prefill); err != nil {
		return nil, err
	}
	return r, nil
}

// prefill writes bytes of timing-only data (nil payloads) from LBA 0 in
// superpage-sized commands that never cross a zone, then flushes.
func (r *rig) prefill(bytes int64) error {
	if bytes == 0 {
		return nil
	}
	zcap := r.f.ZoneCapSectors()
	chunk := r.f.Geometry().SuperpageBytes() / units.Sector
	total := bytes / units.Sector
	for cmds, lba := 1, int64(0); lba < total; cmds++ {
		if cmds%prefillLap == 0 {
			r.laps.lap()
		}
		n := chunk
		if rem := zcap - lba%zcap; n > rem {
			n = rem
		}
		if n > total-lba {
			n = total - lba
		}
		done, err := r.ctrl.Write(r.now, lba, make([][]byte, n))
		if err != nil {
			return fmt.Errorf("prefill lba %d: %w", lba, err)
		}
		r.stepTag++ // every synchronous call consumes one tag
		r.now = done
		lba += n
	}
	done, err := r.ctrl.FlushAll(r.now)
	if err != nil {
		return fmt.Errorf("prefill flush: %w", err)
	}
	r.stepTag++
	r.now = done
	r.laps.lap()
	return nil
}

func (r *rig) fail(format string, args ...any) {
	r.errs++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

func (r *rig) outstanding() int { return r.inflight[0] + r.inflight[1] }

// submit enqueues one command on queue q, first reaping until the window
// has a free slot, and advances the virtual clock by the think time.
func (r *rig) submit(q int, req host.Request) {
	for r.outstanding() >= r.spec.window {
		r.reapOne()
	}
	var tag host.Tag
	var err error
	if r.tr == nil {
		tag, err = r.ctrl.Submit(r.now, q, req)
	} else {
		// Tags are handed out in submission order, so the next one is
		// known before Submit returns it; the traced backend needs it for
		// commands the controller dispatches inside Submit.
		want := r.stepTag + 1
		if r.tb != nil {
			r.tb.expect(want, &req)
		}
		r.tr.begin(spHostSubmit)
		tag, err = r.ctrl.Submit(r.now, q, req)
		r.tr.end(spHostSubmit, uint64(tag))
		if err == nil && tag != want {
			r.fail("tag %d assigned where %d was predicted", tag, want)
		}
		r.stepTag = tag
	}
	if err != nil {
		if err == host.ErrQueueFull {
			r.queueFull++
		}
		r.fail("submit %v lba %d: %v", req.Op, req.LBA, err)
		return
	}
	r.inflight[q]++
	r.cmds++
	r.now += sim.Time(thinkBase + r.rng.next()%thinkJitter)
}

// reapOne retires the earliest-finishing command of the fuller queue and
// advances the submitter's clock to its completion.
func (r *rig) reapOne() {
	q := 0
	if r.inflight[1] > r.inflight[0] {
		q = 1
	}
	var comps []host.Completion
	if r.tr == nil {
		comps = r.ctrl.PollInto(q, 1, r.comps[:0])
	} else {
		r.tr.begin(spHostPoll)
		comps = r.ctrl.PollInto(q, 1, r.comps[:0])
		var tag uint64
		if len(comps) > 0 {
			tag = uint64(comps[0].Tag)
		}
		r.tr.end(spHostPoll, tag)
	}
	if len(comps) == 0 {
		r.fail("no completion with %d commands in flight", r.outstanding())
		r.inflight[q] = 0 // never spin on a lost command
		return
	}
	c := &comps[0]
	if c.Err != nil {
		r.fail("%v lba %d: %v", c.Op, c.LBA, c.Err)
	}
	if c.Done > r.now {
		r.now = c.Done
	}
	r.digest = (r.digest ^ uint64(c.Tag)) * 0x100000001B3
	r.digest = (r.digest ^ uint64(c.Done)) * 0x100000001B3
	r.digest = (r.digest ^ uint64(c.Status)) * 0x100000001B3
	if r.recording {
		r.latSum += int64(c.Latency())
		r.latN++
		if r.tr != nil { // percentiles are per-layer metrics: traced passes only
			r.lat.Record(c.Latency())
			r.qdelay.Record(c.QueueDelay())
		}
	}
	if r.onReap != nil {
		r.onReap(c)
	}
	if c.Data != nil {
		r.ctrl.Recycle(c.Data)
	}
	r.inflight[q]--
	r.reaped++
	if r.reaped == r.chkEnd {
		r.chkDigest = r.digest
	}
	if r.reaped == r.simEnd {
		r.recording = false
		r.simDigest = r.digest
		r.end = r.snap()
	}
}

func (r *rig) drain() {
	for r.outstanding() > 0 {
		r.reapOne()
	}
}

func (r *rig) snap() snapshot {
	s := snapshot{now: r.now, tel: telemetry.Collect(r.f), dispatched: r.ctrl.Dispatched()}
	eng := r.f.Array().Engine()
	for _, res := range eng.Resources() {
		s.reserves += res.Ops()
		if u := res.Utilization(eng.Now()); strings.HasPrefix(res.Name(), "chip") {
			s.chipUtil = max(s.chipUtil, u)
		} else {
			s.chanUtil = max(s.chanUtil, u)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	return s
}

// measured is what one pass of the loop produced.
type measured struct {
	perOp  []float64 // wall ns per command, one value per timed batch
	simOps int64
	cmds   int64 // commands in the timed batches
	// Traced passes: span totals and counts over the timed batches, and per
	// batch the measured ns and the span count per command of each level.
	spanTotal, spanCount []int64
	levelNs, levelSpans  map[spanLevel][]float64
}

// run issues steps until n more commands have been submitted and returns
// how many were.
func (r *rig) run(gen generator, n int64) int64 {
	from := r.cmds
	for r.cmds-from < n && r.errs == 0 {
		if r.tr != nil {
			r.tr.begin(spStep)
			first := r.stepTag + 1
			gen.step(r)
			r.tr.end(spStep, uint64(first))
		} else {
			gen.step(r)
		}
	}
	return r.cmds - from
}

// batch runs and times one batch of the workload's commands.
func (r *rig) batch(gen generator) (time.Duration, int64) {
	t0 := time.Now()
	n := r.run(gen, r.spec.batch)
	return time.Since(t0), n
}

// warm runs the untimed commands that bring caches, buffers and the media's
// payload slabs to steady state, in pieces of lapOps. It is part of the
// set-up.
func (r *rig) warm(gen generator) {
	for b := 0; b < r.warmN && r.errs == 0; b++ {
		r.run(gen, lapOps)
		r.laps.lap()
	}
}

// measure runs timed batches until the virtual-time window of simOps
// commands has closed and minDur has passed. With minDur == 0 the pass
// stops at the first batch boundary after the window closes, so its command
// count is fixed. chkOps > 0 also keeps the digest as it stood after that
// many commands: the checkpoint a shorter run of the same stream ends on.
// between, when not nil, runs before every batch, outside its timed part.
func (r *rig) measure(gen generator, simOps, chkOps int64, minDur time.Duration, between func()) measured {
	m := measured{simOps: simOps}
	if r.tr != nil {
		r.tr.reset()
	}
	r.lat.Reset()
	r.qdelay.Reset()
	r.latSum, r.latN = 0, 0
	r.simEnd = r.reaped + simOps
	r.chkEnd = r.reaped + chkOps
	r.start = r.snap()
	r.recording = true
	if r.tr != nil {
		m.levelNs, m.levelSpans = map[spanLevel][]float64{}, map[spanLevel][]float64{}
	}
	var prevT, prevN [3]int64
	began := time.Now()
	for r.errs == 0 && (r.reaped < r.simEnd || time.Since(began) < minDur) {
		if between != nil {
			between()
		}
		dt, n := r.batch(gen)
		if r.errs != 0 {
			break
		}
		m.perOp = append(m.perOp, float64(dt)/float64(n))
		m.cmds += n
		if r.tr != nil {
			var t, c [3]int64
			for name := spStep; name < spPhase; name++ {
				i := bits.TrailingZeros8(uint8(levelOf(name)))
				t[i] += r.tr.total[name]
				c[i] += r.tr.count[name]
			}
			for i, lv := range []spanLevel{levelStep, levelHost, levelFTL} {
				m.levelNs[lv] = append(m.levelNs[lv], float64(t[i]-prevT[i])/float64(n))
				m.levelSpans[lv] = append(m.levelSpans[lv], float64(c[i]-prevN[i])/float64(n))
			}
			prevT, prevN = t, c
		}
	}
	if r.tr != nil {
		m.spanTotal = append([]int64(nil), r.tr.total...)
		m.spanCount = append([]int64(nil), r.tr.count...)
	}
	return m
}
