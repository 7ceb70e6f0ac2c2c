package conzone

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// TestAsyncDeterminismAcrossQueueDepths runs the same seeded sequential
// write workload at queue depth 1 (direct calls) and queue depth 16
// (submissions to the controller's queues) and requires identical logical
// media state: depth changes submission overlap, never what lands where.
func TestAsyncDeterminismAcrossQueueDepths(t *testing.T) {
	run := func(depth int) (*host.Controller, workload.Result) {
		t.Helper()
		f, err := config.Small().NewConZone()
		if err != nil {
			t.Fatal(err)
		}
		c, err := host.New(f, host.Config{Queues: 2, Depth: 32})
		if err != nil {
			t.Fatal(err)
		}
		zb := c.ZoneCapSectors() * units.Sector
		res, err := workload.Run(c, workload.Job{
			Name:             fmt.Sprintf("det-qd%d", depth),
			Pattern:          workload.SeqWrite,
			BlockBytes:       96 * units.KiB, // program-unit aligned: direct programs
			NumJobs:          2,
			RangeBytes:       2 * zb,
			TotalBytesPerJob: units.AlignDown(zb, 96*units.KiB),
			PerOpOverhead:    2 * time.Microsecond,
			QueueDepth:       depth,
			WithData:         true,
			FlushAtEnd:       true,
			Seed:             7,
		})
		if err != nil {
			t.Fatalf("qd %d: %v", depth, err)
		}
		return c, res
	}

	c1, r1 := run(1)
	c16, r16 := run(16)
	if r1.Bytes != r16.Bytes || r1.Ops != r16.Ops {
		t.Fatalf("volumes differ: qd1 %d bytes/%d ops, qd16 %d bytes/%d ops",
			r1.Bytes, r1.Ops, r16.Bytes, r16.Ops)
	}

	// Bit-identical read-back of the whole written region.
	total := 2 * c1.ZoneCapSectors()
	at1, at16 := c1.Kick(), c16.Kick()
	const chunk = int64(64)
	for lba := int64(0); lba < total; lba += chunk {
		n := chunk
		if lba+n > total {
			n = total - lba
		}
		d1, done1, err := c1.Read(at1, lba, n)
		if err != nil {
			t.Fatal(err)
		}
		d16, done16, err := c16.Read(at16, lba, n)
		if err != nil {
			t.Fatal(err)
		}
		at1, at16 = done1, done16
		for s := range d1 {
			if !bytes.Equal(d1[s], d16[s]) {
				t.Fatalf("lba %d: media contents differ between qd1 and qd16", lba+int64(s))
			}
		}
	}
}

// TestAsyncRunBitIdentical runs the identical queued job twice and
// requires bit-identical results — the determinism contract of the
// arbiter: dispatch order is (ready time, tag), never goroutine schedule.
func TestAsyncRunBitIdentical(t *testing.T) {
	run := func() workload.Result {
		t.Helper()
		f, err := config.Small().NewConZone()
		if err != nil {
			t.Fatal(err)
		}
		c, err := host.New(f, host.Config{Queues: 4, Depth: 64})
		if err != nil {
			t.Fatal(err)
		}
		zb := c.ZoneCapSectors() * units.Sector
		at, err := workload.Prefill(c, 0, 0, 2*zb, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := workload.Run(c, workload.Job{
			Name:             "randread-det",
			Pattern:          workload.RandRead,
			BlockBytes:       4 * units.KiB,
			NumJobs:          3,
			RangeBytes:       2 * zb,
			TotalBytesPerJob: zb / 2,
			PerOpOverhead:    time.Microsecond,
			QueueDepth:       8,
			Seed:             99,
			StartAt:          at,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	// The latency histograms must match observation for observation; the
	// remaining fields compare as one struct once the pointers are masked.
	if ah, bh := a.Hist.Summarize(), b.Hist.Summarize(); ah != bh {
		t.Fatalf("two identical queued runs diverged in latency:\n%+v\n%+v", ah, bh)
	}
	a.Hist, b.Hist = nil, nil
	if a != b {
		t.Fatalf("two identical queued runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestQueueDepthScalesReads is the tentpole's acceptance behaviour at test
// scale: random-read throughput must improve with queue depth on a
// multi-chip device, while single-zone sequential writes must not.
func TestQueueDepthScalesReads(t *testing.T) {
	read := func(depth int) workload.Result {
		t.Helper()
		f, err := config.Small().NewConZone()
		if err != nil {
			t.Fatal(err)
		}
		c, err := host.New(f, host.Config{Queues: 1, Depth: 64})
		if err != nil {
			t.Fatal(err)
		}
		zb := c.ZoneCapSectors() * units.Sector
		at, err := workload.Prefill(c, 0, 0, 2*zb, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := workload.Run(c, workload.Job{
			Name:             fmt.Sprintf("scale-qd%d", depth),
			Pattern:          workload.RandRead,
			BlockBytes:       4 * units.KiB,
			NumJobs:          1,
			RangeBytes:       2 * zb,
			TotalBytesPerJob: zb,
			PerOpOverhead:    time.Microsecond,
			QueueDepth:       depth,
			Seed:             5,
			StartAt:          at,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r8 := read(1), read(8)
	if r8.IOPS <= r1.IOPS*1.2 {
		t.Fatalf("read IOPS did not scale with depth: qd1 %.0f, qd8 %.0f", r1.IOPS, r8.IOPS)
	}

	write := func(depth int) workload.Result {
		t.Helper()
		f, err := config.Small().NewConZone()
		if err != nil {
			t.Fatal(err)
		}
		c, err := host.New(f, host.Config{Queues: 1, Depth: 64})
		if err != nil {
			t.Fatal(err)
		}
		zb := c.ZoneCapSectors() * units.Sector
		res, err := workload.Run(c, workload.Job{
			Name:             fmt.Sprintf("wscale-qd%d", depth),
			Pattern:          workload.SeqWrite,
			BlockBytes:       96 * units.KiB,
			NumJobs:          1,
			RangeBytes:       zb,
			TotalBytesPerJob: units.AlignDown(zb, 96*units.KiB),
			PerOpOverhead:    time.Microsecond,
			QueueDepth:       depth,
			FlushAtEnd:       true,
			Seed:             5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	w1, w8 := write(1), write(8)
	if ratio := w8.BandwidthMiBps / w1.BandwidthMiBps; ratio > 1.2 {
		t.Fatalf("single-zone writes must stay serialized: qd8/qd1 bandwidth x%.2f", ratio)
	}
}

// TestDeviceZoneAppend drives Zone Append end to end through the public
// Device API, both synchronously and via Submit/Wait.
func TestDeviceZoneAppend(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	zb := dev.ZoneBytes()
	data := make([]byte, 8*SectorSize)
	for i := range data {
		data[i] = byte(i % 251)
	}

	// Synchronous appends land back to back at device-chosen offsets.
	off0, err := dev.Append(1, data)
	if err != nil {
		t.Fatal(err)
	}
	if off0 != zb {
		t.Fatalf("first append landed at %d, want the zone start %d", off0, zb)
	}
	off1, err := dev.Append(1, data)
	if err != nil {
		t.Fatal(err)
	}
	if off1 != off0+int64(len(data)) {
		t.Fatalf("second append landed at %d, want %d", off1, off0+int64(len(data)))
	}

	// Queued appends report their assigned LBA in the completion.
	tag, err := dev.Submit(0, HostRequest{Op: OpAppend, Zone: 1, Payloads: toSectors(data)})
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := dev.Wait(tag)
	if !ok || comp.Err != nil {
		t.Fatalf("append completion: ok=%v err=%v", ok, comp.Err)
	}
	if got := comp.LBA * SectorSize; got != off1+int64(len(data)) {
		t.Fatalf("queued append landed at %d, want %d", got, off1+int64(len(data)))
	}

	got, err := dev.Read(off0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("appended data did not read back")
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitWindowedWrites keeps a window of sequential writes in flight on
// one queue with Submit and Wait, then checks that a write off the zone's
// write pointer queues fine and fails in its completion, leaving the zone
// and the device consistent.
func TestSubmitWindowedWrites(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	zb := dev.ZoneBytes()
	data := make([]byte, 4*SectorSize)
	for i := range data {
		data[i] = 0xA5
	}
	const window = 4
	var inflight []Tag
	reap := func() {
		t.Helper()
		comp, ok := dev.Wait(inflight[0])
		if !ok || comp.Err != nil {
			t.Fatalf("write completion: ok=%v err=%v", ok, comp.Err)
		}
		inflight = inflight[1:]
	}
	for i := 0; i < 8; i++ {
		if len(inflight) == window {
			reap()
		}
		off := 3*zb + int64(i*len(data))
		tag, err := dev.Submit(1, HostRequest{Op: OpWrite, LBA: off / SectorSize, Payloads: toSectors(data)})
		if err != nil {
			t.Fatal(err)
		}
		inflight = append(inflight, tag)
	}
	for len(inflight) > 0 {
		reap()
	}
	got, err := dev.Read(3*zb, 8*len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat(data, 8)) {
		t.Fatal("windowed writes did not read back")
	}

	// A write off the write pointer is a device-side error: Submit accepts
	// it, and its completion reports the violation.
	tag, err := dev.Submit(2, HostRequest{Op: OpWrite, LBA: (5*zb + SectorSize) / SectorSize, Payloads: toSectors(data)})
	if err != nil {
		t.Fatalf("Submit refused a well-formed write: %v", err)
	}
	comp, ok := dev.Wait(tag)
	if !ok || comp.Err == nil || comp.Status == StatusOK {
		t.Fatalf("write off the write pointer: ok=%v status=%v err=%v, want a failed completion", ok, comp.Status, comp.Err)
	}
	if z, _ := dev.Zone(5); z.Written() != 0 {
		t.Fatalf("the refused write moved zone 5's write pointer to %d", z.Written())
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitQueueFull pins Submit on a shared full queue: another submitter
// holds half the slots and this one fills the rest. A refused Submit changes
// nothing — clock, Stats, queued and completed commands, the next tag — and
// one Wait on the submitter's own oldest tag frees exactly one slot. So the
// windowed loop of ExampleDevice_Submit pays one reap per retry instead of
// resubmitting forever at one virtual instant, and a submitter with nothing
// of its own in the queue gets ErrQueueFull back.
func TestSubmitQueueFull(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ConfigureQueues(1, 8); err != nil {
		t.Fatal(err)
	}
	// Occupy half the queue with reads that stay unreaped until the end.
	var raw []Tag
	for i := 0; i < 4; i++ {
		tag, err := dev.Submit(0, HostRequest{Op: OpRead, LBA: 0, N: 1})
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, tag)
	}

	zb := dev.ZoneBytes()
	data := make([]byte, 4*SectorSize)
	for i := range data {
		data[i] = byte(0xC3 ^ i)
	}
	write := func(i int) HostRequest {
		return HostRequest{Op: OpWrite, LBA: (zb + int64(i*len(data))) / SectorSize, Payloads: toSectors(data)}
	}
	type state struct {
		now   time.Duration
		stats Stats
		host  host.DebugState
	}
	snapshot := func() state { // Stats first: it dispatches what is queued
		st := dev.Stats()
		return state{dev.Now(), st, dev.Host().DebugSnapshot()}
	}

	const writes = 10
	var own []Tag
	attempts := 0
	for i := 0; i < writes; i++ {
		attempts++
		tag, err := dev.Submit(0, write(i))
		for errors.Is(err, ErrQueueFull) {
			if i < 4 {
				t.Fatalf("write %d refused with %d of 8 slots taken", i, 4+i)
			}
			before := snapshot()
			if _, again := dev.Submit(0, write(i)); !errors.Is(again, ErrQueueFull) {
				t.Fatalf("write %d: a second Submit on the full queue returned %v", i, again)
			}
			if after := snapshot(); !reflect.DeepEqual(before, after) {
				t.Fatalf("write %d: a refused Submit changed the device:\nbefore %+v\nafter  %+v", i, before, after)
			}
			comp, ok := dev.Wait(own[0])
			if !ok || comp.Err != nil {
				t.Fatalf("write completion: ok=%v err=%v", ok, comp.Err)
			}
			own = own[1:]
			if out := dev.Host().DebugSnapshot().Outstanding[0]; out != 7 {
				t.Fatalf("one Wait left %d commands outstanding, want 7", out)
			}
			attempts++
			tag, err = dev.Submit(0, write(i))
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		own = append(own, tag)
	}
	// The first 4 writes fit beside the reads; each later one is refused
	// once, and the one slot its Wait frees takes it.
	if want := 4 + (writes-4)*2; attempts != want {
		t.Fatalf("%d Submit calls for %d writes, want %d (one wait-and-retry per full-queue submit)", attempts, writes, want)
	}

	for _, tag := range append(raw, own...) {
		if comp, ok := dev.Wait(tag); !ok || comp.Err != nil {
			t.Fatalf("completion of tag %d: ok=%v err=%v", tag, ok, comp.Err)
		}
	}
	got, err := dev.Read(1*zb, writes*len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		if !bytes.Equal(got[i*len(data):(i+1)*len(data)], data) {
			t.Fatalf("write %d did not land intact", i)
		}
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSubmitters hammers the device from parallel goroutines —
// one queue and one zone each, a window of Zone Appends per goroutine
// through Submit and Wait — to exercise the concurrency contract under the
// race detector. Logical contents must come out exact.
func TestConcurrentSubmitters(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	queues := dev.Host().Queues()
	if dev.NumZones() < queues {
		queues = dev.NumZones()
	}
	zb := dev.ZoneBytes()
	var wg sync.WaitGroup
	errs := make(chan error, queues)
	for g := 0; g < queues; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data := make([]byte, 4*SectorSize)
			for i := range data {
				data[i] = byte(g + 1)
			}
			const window = 8
			var inflight []Tag
			reap := func() error {
				comp, ok := dev.Wait(inflight[0])
				inflight = inflight[1:]
				if !ok {
					return fmt.Errorf("goroutine %d: completion reaped elsewhere", g)
				}
				return comp.Err
			}
			for i := 0; i < 16; i++ {
				if len(inflight) == window {
					if err := reap(); err != nil {
						errs <- err
						return
					}
				}
				tag, err := dev.Submit(g, HostRequest{Op: OpAppend, Zone: g, Payloads: toSectors(data)})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d append %d: %w", g, i, err)
					return
				}
				inflight = append(inflight, tag)
			}
			for len(inflight) > 0 {
				if err := reap(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := 0; g < queues; g++ {
		got, err := dev.Read(int64(g)*zb, 16*4*int(SectorSize))
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range got {
			if b != byte(g+1) {
				t.Fatalf("zone %d byte %d: got %d, want %d", g, i, b, g+1)
			}
		}
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOneLockContract pins the ownership rule: the host controller takes no
// lock, and Device.mu alone makes the public API safe to share. Several
// goroutines drive one device at once through every kind of entry — Submit,
// Poll and Wait on queues of their own; synchronous Write, ReadInto and
// ResetZone; the Series, Heatmap and CheckInvariants readouts; a /metrics
// scrape — so `go test -race` sees every path into the controller
// concurrently. Data must come back exact and the final audit, host queues
// included, must be clean.
func TestOneLockContract(t *testing.T) {
	dev := openSmall(t)
	dev.EnableObservation(0)
	if err := dev.EnableSampling(50*time.Microsecond, 0); err != nil {
		t.Fatal(err)
	}
	zb := dev.ZoneBytes()
	const chunk = 4 * SectorSize
	var wg sync.WaitGroup

	// Two asynchronous submitters, one queue and one zone each: a window of
	// Zone Appends reaped alternately by Poll and by Wait, a final drain by
	// Poll, then a read-back of every append through a queued read into a
	// flat destination.
	start := make(chan struct{})
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			<-start
			const appends, window = 64, 4
			lbas := make(map[Tag]int64, appends)
			inflight := make(map[Tag]bool, window)
			var order []Tag
			reaped := func(c HostCompletion) {
				if c.Err != nil {
					t.Errorf("queue %d: %v", q, c.Err)
				}
				delete(inflight, c.Tag)
				lbas[c.Tag] = c.LBA
			}
			oldest := 0
			for i := 0; i < appends; i++ {
				if len(inflight) == window {
					if i%2 == 0 {
						for _, c := range dev.Poll(q, 1) {
							reaped(c)
						}
					} else {
						for !inflight[order[oldest]] {
							oldest++
						}
						c, ok := dev.Wait(order[oldest])
						if !ok {
							t.Errorf("queue %d: tag %d reaped elsewhere", q, order[oldest])
							return
						}
						reaped(c)
					}
				}
				tag, err := dev.Submit(q, HostRequest{Op: OpAppend, Zone: q, Payloads: toSectors(pattern(int64(q*appends+i), int(chunk)))})
				if err != nil {
					t.Errorf("queue %d append %d: %v", q, i, err)
					return
				}
				inflight[tag] = true
				order = append(order, tag)
			}
			for _, c := range dev.Poll(q, 0) {
				reaped(c)
			}
			if len(inflight) > 0 {
				t.Errorf("queue %d: %d appends never completed", q, len(inflight))
				return
			}
			for i, tag := range order {
				dst := make([]byte, chunk)
				rt, err := dev.Submit(q, HostRequest{Op: OpRead, LBA: lbas[tag], N: chunk / SectorSize, Dst: dst})
				if err != nil {
					t.Errorf("queue %d read %d: %v", q, i, err)
					return
				}
				if c, ok := dev.Wait(rt); !ok || c.Err != nil {
					t.Errorf("queue %d read %d: reaped %v, err %v", q, i, ok, c.Err)
					return
				}
				if !bytes.Equal(dst, pattern(int64(q*appends+i), int(chunk))) {
					t.Errorf("queue %d: append %d read back wrong", q, i)
				}
			}
		}(q)
	}

	// A synchronous writer on zone 2: fill, read each write back, reset.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		base := 2 * zb
		got := make([]byte, chunk)
		for round := 0; round < 3; round++ {
			for i := int64(0); i < 16; i++ {
				off := base + i*chunk
				if err := dev.Write(off, pattern(off+int64(round), int(chunk))); err != nil {
					t.Errorf("round %d write %d: %v", round, i, err)
					return
				}
				if err := dev.ReadInto(off, got); err != nil || !bytes.Equal(got, pattern(off+int64(round), int(chunk))) {
					t.Errorf("round %d read %d: err %v or wrong bytes", round, i, err)
					return
				}
			}
			if err := dev.ResetZone(2); err != nil {
				t.Errorf("round %d reset: %v", round, err)
				return
			}
		}
	}()

	// Readouts and a scrape, interleaved with the I/O above.
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 20; i++ {
			_ = dev.Series()
			if rows := dev.Heatmap().Zones; len(rows) != dev.NumZones() {
				t.Errorf("heatmap has %d zone rows, want %d", len(rows), dev.NumZones())
			}
			if err := dev.CheckInvariants(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		h := dev.ObservabilityHandler()
		for i := 0; i < 10; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != 200 || !strings.Contains(rec.Body.String(), "conzone_ftl_host_written_bytes_total ") {
				t.Errorf("scrape %d: status %d", i, rec.Code)
			}
		}
	}()
	close(start)
	wg.Wait()
	if err := dev.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigureQueues covers reconfiguration and its idle requirement.
func TestConfigureQueues(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ConfigureQueues(2, 4); err != nil {
		t.Fatal(err)
	}
	if h := dev.Host(); h.Queues() != 2 || h.Depth() != 4 {
		t.Fatalf("got %d queues depth %d", h.Queues(), h.Depth())
	}
	tag, err := dev.Submit(1, HostRequest{Op: OpRead, LBA: 0, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ConfigureQueues(4, 8); err == nil {
		t.Fatal("reconfigure with a command in flight must fail")
	}
	if _, ok := dev.Wait(tag); !ok {
		t.Fatal("completion lost")
	}
	if err := dev.ConfigureQueues(4, 8); err != nil {
		t.Fatalf("reconfigure when idle: %v", err)
	}
}
