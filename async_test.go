package conzone

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// TestAsyncDeterminismAcrossQueueDepths runs the same seeded sequential
// write workload at queue depth 1 (the synchronous driver) and queue depth
// 16 (the queued driver) and requires identical logical media state: depth
// changes submission overlap, never what lands where.
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

// TestAsyncWriter exercises the convenience writer: windowed writes,
// appends with deferred offset assignment, sticky errors.
func TestAsyncWriter(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := dev.NewAsyncWriter(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4*SectorSize)
	for i := range data {
		data[i] = 0xA5
	}
	var idxs []int
	for i := 0; i < 24; i++ {
		idx, err := w.Append(2, data)
		if err != nil {
			t.Fatal(err)
		}
		idxs = append(idxs, idx)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	zb := dev.ZoneBytes()
	for i, idx := range idxs {
		if got, want := w.AssignedOffset(idx), 2*zb+int64(i*len(data)); got != want {
			t.Fatalf("append %d assigned offset %d, want %d", i, got, want)
		}
	}
	// Sequential windowed writes to another zone.
	w2, err := dev.NewAsyncWriter(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := w2.Write(3*zb+int64(i*len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	// A write off the write pointer surfaces as a sticky error by Flush.
	w3, err := dev.NewAsyncWriter(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w3.Write(5*zb+SectorSize, data); err != nil {
		t.Fatal(err) // queues fine; fails at dispatch
	}
	if err := w3.Flush(); err == nil {
		t.Fatal("want the write-pointer violation from Flush")
	}
	if w3.Err() == nil {
		t.Fatal("error must stick")
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncWriterQueueFullRetry pins the writer's behaviour on a shared
// full queue: another submitter holds half the slots, so once the writer's
// own commands fill the rest, every further submit must wait for one of its
// own completions and retry exactly once — SubmitAttempts proves there is
// no busy resubmit loop — and a writer with an empty window (nothing of its
// own to reap) must give up with ErrQueueFull instead of spinning.
func TestAsyncWriterQueueFullRetry(t *testing.T) {
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

	w, err := dev.NewAsyncWriter(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	zb := dev.ZoneBytes()
	data := make([]byte, 4*SectorSize)
	for i := range data {
		data[i] = byte(0xC3 ^ i)
	}
	const writes = 10
	for i := 0; i < writes; i++ {
		if _, err := w.Write(1*zb+int64(i*len(data)), data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// The first 4 writes fit alongside the reads; each later one finds the
	// queue full, reaps its own oldest completion, and succeeds on the one
	// retry that slot allows.
	if got, want := w.SubmitAttempts(), int64(4+(writes-4)*2); got != want {
		t.Fatalf("SubmitAttempts = %d, want %d (one wait-and-retry per full-queue submit)", got, want)
	}

	// A second writer on the same full queue owns none of the occupants: it
	// must fail fast with ErrQueueFull, not loop.
	w2, err := dev.NewAsyncWriter(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Write(2*zb, data); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("empty-window submit on a full queue returned %v, want ErrQueueFull", err)
	}

	for _, tag := range raw {
		if _, ok := dev.Wait(tag); !ok {
			t.Fatalf("read completion of tag %d vanished", tag)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
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
// one queue and one zone each — to exercise the concurrency contract
// under the race detector. Logical contents must come out exact.
func TestConcurrentSubmitters(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	queues := dev.QueueCount()
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
			w, err := dev.NewAsyncWriter(g, 8)
			if err != nil {
				errs <- err
				return
			}
			data := make([]byte, 4*SectorSize)
			for i := range data {
				data[i] = byte(g + 1)
			}
			for i := 0; i < 16; i++ {
				if _, err := w.Append(g, data); err != nil {
					errs <- fmt.Errorf("goroutine %d append %d: %w", g, i, err)
					return
				}
			}
			if err := w.Flush(); err != nil {
				errs <- fmt.Errorf("goroutine %d flush: %w", g, err)
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

// TestConfigureQueues covers reconfiguration and its idle requirement.
func TestConfigureQueues(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ConfigureQueues(2, 4); err != nil {
		t.Fatal(err)
	}
	if dev.QueueCount() != 2 || dev.QueueDepth() != 4 {
		t.Fatalf("got %d queues depth %d", dev.QueueCount(), dev.QueueDepth())
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
