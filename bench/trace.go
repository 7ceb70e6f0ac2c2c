package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
)

// The traced run records spans from the benchmark's own files only, around
// the calls into each layer: step (one driver iteration) -> host.submit /
// host.poll (Controller.Submit / PollInto) -> ftl.* (the backend calls the
// controller makes, timed by tracedBackend). Per-name totals and counts
// are kept for every span; full records are kept for one request in
// sampleEvery and written as a Chrome trace when the workload ends.

type spanName int

const (
	spStep spanName = iota
	spHostSubmit
	spHostPoll
	spFTLRead
	spFTLWrite
	spFTLFlush
	spFTLReset
	spFTLStage
	spFTLDrain
	spPhase // first of the dynamically named phase spans
)

var fixedSpanNames = []string{
	"step", "host.submit", "host.poll",
	"ftl.read", "ftl.write", "ftl.flush", "ftl.reset", "ftl.stage", "ftl.drain",
}

// sampleEvery is the request-id stride of fully recorded spans.
const sampleEvery = 1024

// spanRec is one fully recorded span.
type spanRec struct {
	id, parent int32 // parent is 0 for a root span
	name       spanName
	start, end int64 // ns since the tracer's base
	tag        uint64
}

type frame struct {
	name  spanName
	start int64
	id    int32
}

// spanLevel groups the span names by nesting depth. A pass can record one
// level alone: its spans then contain no other span, so what they measure
// is not inflated by clock reads nested inside them.
type spanLevel uint8

const (
	levelStep spanLevel = 1 << iota
	levelHost
	levelFTL
	levelAll = levelStep | levelHost | levelFTL
)

func levelOf(n spanName) spanLevel {
	switch {
	case n == spStep:
		return levelStep
	case n == spHostSubmit || n == spHostPoll:
		return levelHost
	case n < spPhase:
		return levelFTL
	}
	return levelAll // phase spans are recorded at every level
}

// tracer accumulates spans. It is used from the single submitter goroutine
// only (the FTL's shard workers never call into the benchmark).
type tracer struct {
	base   time.Time
	levels spanLevel // which levels this pass records
	on     []bool    // per span name: levels&levelOf(name) != 0
	names  []string
	total  []int64 // summed measured duration per name
	count  []int64
	stack  []frame
	recs   []spanRec
	nextID int32
}

func newTracer(levels spanLevel) *tracer {
	t := &tracer{base: time.Now(), levels: levels, names: append([]string(nil), fixedSpanNames...)}
	t.total = make([]int64, len(t.names))
	t.count = make([]int64, len(t.names))
	for n := range t.names {
		t.on = append(t.on, levels&levelOf(spanName(n)) != 0)
	}
	return t
}

// phase registers (or finds) a dynamically named span such as
// "experiments.fig7" or "persist.save".
func (t *tracer) phase(name string) spanName {
	for i, n := range t.names {
		if n == name {
			return spanName(i)
		}
	}
	t.names = append(t.names, name)
	t.total = append(t.total, 0)
	t.count = append(t.count, 0)
	t.on = append(t.on, true)
	return spanName(len(t.names) - 1)
}

func (t *tracer) clk() int64 { return int64(time.Since(t.base)) }

// begin opens a span; every begin is paired with one end of the same
// name, innermost first.
func (t *tracer) begin(name spanName) {
	if t.on[name] {
		t.open(name)
	}
}

func (t *tracer) open(name spanName) {
	t.nextID++
	t.stack = append(t.stack, frame{name: name, id: t.nextID, start: t.clk()})
}

// end closes the innermost span, which must be name. tag is the host
// command tag the span worked for (0 when there is none); sampled requests
// keep a full record.
func (t *tracer) end(name spanName, tag uint64) {
	if t.on[name] {
		t.close(tag)
	}
}

func (t *tracer) close(tag uint64) {
	now := t.clk()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.total[f.name] += now - f.start
	t.count[f.name]++
	if (tag != 0 && tag%sampleEvery == 0) || f.name >= spPhase {
		var parent int32
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].id
		}
		t.recs = append(t.recs, spanRec{id: f.id, parent: parent, name: f.name, start: f.start, end: now, tag: tag})
	}
}

// reset clears totals and counts (the warm-up is not part of the budget);
// recorded spans are kept.
func (t *tracer) reset() {
	for i := range t.total {
		t.total[i], t.count[i] = 0, 0
	}
}

// writeChrome writes the recorded spans as a Chrome trace-event file.
func (t *tracer) writeChrome(dir, workload string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, r := range t.recs {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"tag":%d}}`,
			t.names[r.name], float64(r.start)/1e3, float64(r.end-r.start)/1e3, r.id, r.parent, r.tag)
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}

// tagFIFO hands the traced backend the tag of the command being dispatched.
// The controller dispatches the reads in submission order and the
// write-class commands of one zone in submission order, so one queue for
// reads and one per zone reproduce the dispatch order without asking the
// controller. Capacity covers the largest submission window.
type tagFIFO struct {
	buf        [128]host.Tag
	head, tail uint32
}

func (q *tagFIFO) push(t host.Tag) { q.buf[q.tail%128] = t; q.tail++ }

func (q *tagFIFO) pop() host.Tag {
	if q.head == q.tail {
		return 0
	}
	t := q.buf[q.head%128]
	q.head++
	return t
}

// tracedBackend is the timing wrapper between the controller and the real
// FTL. It implements host.Backend and the optional fast-path interfaces the
// controller probes (ReadInto, ReadsShardable/StageRead/DrainStagedReads)
// by delegating, so the controller takes exactly the paths it takes over a
// bare *ftl.FTL; the digest comparison with the untraced pass proves it.
type tracedBackend struct {
	be interface {
		host.Backend
		ReadInto(at sim.Time, lba, n int64, dst [][]byte) (sim.Time, error)
		ReadsShardable() bool
		StageRead(at sim.Time, lba, n int64, dst [][]byte)
		DrainStagedReads(emit func(i int, done sim.Time, err error))
	}
	tr    *tracer
	zcap  int64
	reads tagFIFO
	zones []tagFIFO
}

// expect notes that the command about to be submitted will carry tag.
func (b *tracedBackend) expect(tag host.Tag, req *host.Request) {
	switch req.Op {
	case host.OpRead:
		b.reads.push(tag)
	case host.OpWrite:
		b.zones[req.LBA/b.zcap].push(tag)
	default:
		b.zones[req.Zone].push(tag)
	}
}

func (b *tracedBackend) Read(at sim.Time, lba, n int64) ([][]byte, sim.Time, error) {
	b.tr.begin(spFTLRead)
	d, done, err := b.be.Read(at, lba, n)
	b.tr.end(spFTLRead, uint64(b.reads.pop()))
	return d, done, err
}

func (b *tracedBackend) ReadInto(at sim.Time, lba, n int64, dst [][]byte) (sim.Time, error) {
	b.tr.begin(spFTLRead)
	done, err := b.be.ReadInto(at, lba, n, dst)
	b.tr.end(spFTLRead, uint64(b.reads.pop()))
	return done, err
}

func (b *tracedBackend) ReadsShardable() bool { return b.be.ReadsShardable() }

func (b *tracedBackend) StageRead(at sim.Time, lba, n int64, dst [][]byte) {
	b.tr.begin(spFTLStage)
	b.be.StageRead(at, lba, n, dst)
	b.tr.end(spFTLStage, uint64(b.reads.pop()))
}

func (b *tracedBackend) DrainStagedReads(emit func(i int, done sim.Time, err error)) {
	b.tr.begin(spFTLDrain)
	b.be.DrainStagedReads(emit)
	b.tr.end(spFTLDrain, 0) // a drain serves a whole burst, not one request
}

func (b *tracedBackend) Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error) {
	b.tr.begin(spFTLWrite)
	done, err := b.be.Write(at, lba, payloads)
	b.tr.end(spFTLWrite, uint64(b.zones[lba/b.zcap].pop()))
	return done, err
}

func (b *tracedBackend) Append(at sim.Time, zone int, payloads [][]byte) (int64, sim.Time, error) {
	b.tr.begin(spFTLWrite)
	lba, done, err := b.be.Append(at, zone, payloads)
	b.tr.end(spFTLWrite, uint64(b.zones[zone].pop()))
	return lba, done, err
}

func (b *tracedBackend) Flush(at sim.Time, zone int) (sim.Time, error) {
	b.tr.begin(spFTLFlush)
	done, err := b.be.Flush(at, zone)
	b.tr.end(spFTLFlush, uint64(b.zones[zone].pop()))
	return done, err
}

func (b *tracedBackend) FlushAll(at sim.Time) (sim.Time, error) {
	b.tr.begin(spFTLFlush)
	done, err := b.be.FlushAll(at)
	b.tr.end(spFTLFlush, 0)
	return done, err
}

func (b *tracedBackend) ResetZone(at sim.Time, zone int) (sim.Time, error) {
	b.tr.begin(spFTLReset)
	done, err := b.be.ResetZone(at, zone)
	b.tr.end(spFTLReset, uint64(b.zones[zone].pop()))
	return done, err
}

func (b *tracedBackend) CloseZone(at sim.Time, zone int) (sim.Time, error) {
	return b.be.CloseZone(at, zone)
}

func (b *tracedBackend) FinishZone(at sim.Time, zone int) (sim.Time, error) {
	return b.be.FinishZone(at, zone)
}

func (b *tracedBackend) NumZones() int           { return b.be.NumZones() }
func (b *tracedBackend) ZoneCapSectors() int64   { return b.be.ZoneCapSectors() }
func (b *tracedBackend) TotalSectors() int64     { return b.be.TotalSectors() }
func (b *tracedBackend) Recorder() *obs.Recorder { return b.be.Recorder() }
