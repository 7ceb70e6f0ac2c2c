package workload

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// fakeDevice is a deterministic device stub: writes complete instantly
// (buffered), reads take a fixed latency.
type fakeDevice struct {
	total    int64 // sectors
	readLat  time.Duration
	writeLat time.Duration
	writes   []int64 // lbas in issue order
	reads    []int64
	flushed  int
}

func (f *fakeDevice) Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error) {
	f.writes = append(f.writes, lba)
	return at.Add(f.writeLat), nil
}

func (f *fakeDevice) ReadInto(at sim.Time, lba, n int64, dst [][]byte) (sim.Time, error) {
	f.reads = append(f.reads, lba)
	clear(dst)
	return at.Add(f.readLat), nil
}

func (f *fakeDevice) FlushAll(at sim.Time) (sim.Time, error) {
	f.flushed++
	return at.Add(time.Millisecond), nil
}

func (f *fakeDevice) TotalSectors() int64 { return f.total }

func baseJob() Job {
	return Job{
		Name:             "t",
		Pattern:          SeqRead,
		BlockBytes:       16 * units.KiB,
		NumJobs:          1,
		RangeBytes:       1 * units.MiB,
		TotalBytesPerJob: 256 * units.KiB,
		Seed:             1,
	}
}

func TestPatternStrings(t *testing.T) {
	if SeqWrite.String() != "write" || SeqRead.String() != "read" ||
		RandRead.String() != "randread" || RandWrite.String() != "randwrite" {
		t.Error("pattern names wrong")
	}
	if !SeqWrite.IsWrite() || !RandWrite.IsWrite() || SeqRead.IsWrite() || RandRead.IsWrite() {
		t.Error("IsWrite wrong")
	}
}

func TestValidateRejections(t *testing.T) {
	dev := &fakeDevice{total: 4096}
	muts := []func(*Job){
		func(j *Job) { j.BlockBytes = 1000 },
		func(j *Job) { j.BlockBytes = 0 },
		func(j *Job) { j.NumJobs = 0 },
		func(j *Job) { j.OffsetBytes = -1 },
		func(j *Job) { j.RangeBytes = 0 },
		func(j *Job) { j.RangeBytes = 100 * units.GiB },
		func(j *Job) { j.TotalBytesPerJob = 0 },
		func(j *Job) { j.TotalBytesPerJob = j.BlockBytes + 1 },
		func(j *Job) { j.RangeBytes = 4 * units.KiB; j.BlockBytes = 8 * units.KiB },
		func(j *Job) { j.ThreadOffsets = []int64{0, 1} },
		func(j *Job) { j.PerOpOverhead = -time.Second },
	}
	for i, m := range muts {
		j := baseJob()
		m(&j)
		if err := j.Validate(dev); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	j := baseJob()
	if err := j.Validate(dev); err != nil {
		t.Errorf("base job rejected: %v", err)
	}
	// O_SYNC needs a zoned device.
	j.Pattern, j.SyncWrites = SeqWrite, true
	if err := j.Validate(dev); err == nil || !strings.Contains(err.Error(), "*workload.fakeDevice") {
		t.Errorf("SyncWrites on a device without zones: %v, want an error naming the device type", err)
	}
	if err := j.Validate(&syncDevice{fakeDevice: fakeDevice{total: 4096}}); err != nil {
		t.Errorf("SyncWrites on a zoned device rejected: %v", err)
	}
}

func TestSeqReadSingleThread(t *testing.T) {
	dev := &fakeDevice{total: 1 << 20, readLat: 50 * time.Microsecond}
	j := baseJob()
	res, err := Run(dev, j)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 16 {
		t.Errorf("Ops = %d, want 16", res.Ops)
	}
	if res.Bytes != 256*units.KiB {
		t.Errorf("Bytes = %d", res.Bytes)
	}
	// Sequential: lbas must increase by 4 sectors (16 KiB).
	for i, lba := range dev.reads {
		if lba != int64(i*4) {
			t.Fatalf("read %d at lba %d", i, lba)
		}
	}
	// 16 ops x 50us = 800us elapsed.
	if res.Elapsed != 800*time.Microsecond {
		t.Errorf("Elapsed = %v", res.Elapsed)
	}
	wantBW := units.BandwidthMiBps(256*units.KiB, 800*time.Microsecond)
	if res.BandwidthMiBps != wantBW {
		t.Errorf("BW = %v, want %v", res.BandwidthMiBps, wantBW)
	}
	if res.Lat.P50 > 51*time.Microsecond || res.Lat.Count != 16 {
		t.Errorf("latency summary = %+v", res.Lat)
	}
	if res.KIOPS() <= 0 {
		t.Error("KIOPS should be positive")
	}
	if res.String() == "" {
		t.Error("String empty")
	}
}

func TestSeqSplitAcrossThreads(t *testing.T) {
	dev := &fakeDevice{total: 1 << 20, readLat: 10 * time.Microsecond}
	j := baseJob()
	j.NumJobs = 4
	j.TotalBytesPerJob = 64 * units.KiB
	res, err := Run(dev, j)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 16 {
		t.Errorf("Ops = %d", res.Ops)
	}
	// Each thread starts at its own quarter of the 1 MiB range.
	seen := map[int64]bool{}
	for _, lba := range dev.reads {
		seen[lba*units.Sector/(256*units.KiB)] = true
	}
	if len(seen) != 4 {
		t.Errorf("threads did not cover 4 slices: %v", seen)
	}
	// Threads run concurrently in virtual time: elapsed is one thread's
	// serial time, not four.
	if res.Elapsed != 40*time.Microsecond {
		t.Errorf("Elapsed = %v", res.Elapsed)
	}
}

func TestSeqWrap(t *testing.T) {
	dev := &fakeDevice{total: 1 << 20, readLat: time.Microsecond}
	j := baseJob()
	j.RangeBytes = 64 * units.KiB
	j.TotalBytesPerJob = 128 * units.KiB // twice the range: must wrap
	res, err := Run(dev, j)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 8 {
		t.Errorf("Ops = %d", res.Ops)
	}
	if dev.reads[4] != 0 {
		t.Errorf("wrap: read 4 at lba %d, want 0", dev.reads[4])
	}
}

func TestRandReadBounds(t *testing.T) {
	dev := &fakeDevice{total: 1 << 20, readLat: time.Microsecond}
	j := baseJob()
	j.Pattern = RandRead
	j.OffsetBytes = 256 * units.KiB
	j.RangeBytes = 512 * units.KiB
	j.TotalBytesPerJob = 1 * units.MiB
	if _, err := Run(dev, j); err != nil {
		t.Fatal(err)
	}
	lo := j.OffsetBytes / units.Sector
	hi := (j.OffsetBytes + j.RangeBytes) / units.Sector
	for _, lba := range dev.reads {
		if lba < lo || lba+4 > hi {
			t.Fatalf("random read out of range: %d", lba)
		}
		if lba*units.Sector%j.BlockBytes != 0 {
			t.Fatalf("random read unaligned: %d", lba)
		}
	}
}

func TestRandReadDeterminism(t *testing.T) {
	j := baseJob()
	j.Pattern = RandRead
	a := &fakeDevice{total: 1 << 20, readLat: time.Microsecond}
	b := &fakeDevice{total: 1 << 20, readLat: time.Microsecond}
	if _, err := Run(a, j); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(b, j); err != nil {
		t.Fatal(err)
	}
	for i := range a.reads {
		if a.reads[i] != b.reads[i] {
			t.Fatal("same seed produced different sequences")
		}
	}
	j.Seed = 2
	c := &fakeDevice{total: 1 << 20, readLat: time.Microsecond}
	if _, err := Run(c, j); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.reads {
		if a.reads[i] != c.reads[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sequences")
	}
}

func TestPerOpOverheadInterleavesThreads(t *testing.T) {
	// Two writer threads with instant writes: overhead paces them so
	// their operations alternate instead of one thread bursting.
	dev := &fakeDevice{total: 1 << 20}
	j := baseJob()
	j.Pattern = SeqWrite
	j.NumJobs = 2
	j.TotalBytesPerJob = 64 * units.KiB
	j.PerOpOverhead = 10 * time.Microsecond
	if _, err := Run(dev, j); err != nil {
		t.Fatal(err)
	}
	// With alternation, consecutive writes come from different slices.
	slice0 := int64(0)
	alternations := 0
	for i := 1; i < len(dev.writes); i++ {
		s := dev.writes[i] * units.Sector / (512 * units.KiB)
		if s != slice0 {
			alternations++
			slice0 = s
		}
	}
	if alternations < 4 {
		t.Errorf("threads did not interleave: %v", dev.writes)
	}
}

func TestThreadOffsets(t *testing.T) {
	dev := &fakeDevice{total: 1 << 20}
	j := baseJob()
	j.Pattern = SeqWrite
	j.NumJobs = 2
	j.TotalBytesPerJob = 32 * units.KiB
	j.ThreadOffsets = []int64{0, 768 * units.KiB}
	if _, err := Run(dev, j); err != nil {
		t.Fatal(err)
	}
	var hitLow, hitHigh bool
	for _, lba := range dev.writes {
		if lba == 0 {
			hitLow = true
		}
		if lba == 768*units.KiB/units.Sector {
			hitHigh = true
		}
	}
	if !hitLow || !hitHigh {
		t.Errorf("explicit offsets not honoured: %v", dev.writes)
	}
}

func TestFlushAtEnd(t *testing.T) {
	dev := &fakeDevice{total: 1 << 20}
	j := baseJob()
	j.Pattern = SeqWrite
	j.FlushAtEnd = true
	res, err := Run(dev, j)
	if err != nil {
		t.Fatal(err)
	}
	if dev.flushed != 1 {
		t.Errorf("flushed = %d", dev.flushed)
	}
	// The flush millisecond counts into elapsed.
	if res.Elapsed < time.Millisecond {
		t.Errorf("Elapsed = %v should include flush", res.Elapsed)
	}
	// Read jobs must not flush.
	dev2 := &fakeDevice{total: 1 << 20, readLat: time.Microsecond}
	j2 := baseJob()
	j2.FlushAtEnd = true
	if _, err := Run(dev2, j2); err != nil {
		t.Fatal(err)
	}
	if dev2.flushed != 0 {
		t.Error("read job flushed")
	}
}

func TestWithDataPayloads(t *testing.T) {
	got := fillPayload(5)
	if int64(len(got)) != units.Sector {
		t.Fatalf("payload size %d", len(got))
	}
	if got[0] != byte(5*13%251) {
		t.Error("payload content unexpected")
	}
}

func TestPrefillValidation(t *testing.T) {
	dev := &fakeDevice{total: 1 << 20}
	if _, err := Prefill(dev, 0, 1, units.MiB, false); err == nil {
		t.Error("unaligned offset accepted")
	}
	if _, err := Prefill(dev, 0, 0, 0, false); err == nil {
		t.Error("zero range accepted")
	}
	if _, err := Prefill(dev, 0, 0, units.MiB, false); err != nil {
		t.Error(err)
	}
	if dev.flushed != 1 {
		t.Error("prefill must flush")
	}
	// Writes cover the range sequentially.
	if dev.writes[0] != 0 {
		t.Error("prefill did not start at offset")
	}
}

// syncDevice counts zone flushes to verify SyncWrites plumbing.
type syncDevice struct {
	fakeDevice
	zoneFlushes []int
}

func (s *syncDevice) ResetZone(at sim.Time, zone int) (sim.Time, error) { return at, nil }
func (s *syncDevice) NumZones() int                                     { return 8 }
func (s *syncDevice) ZoneCapSectors() int64                             { return 256 }

func (s *syncDevice) Flush(at sim.Time, zone int) (sim.Time, error) {
	s.zoneFlushes = append(s.zoneFlushes, zone)
	return at.Add(20 * time.Microsecond), nil
}

func TestSyncWritesFlushPerWrite(t *testing.T) {
	dev := &syncDevice{fakeDevice: fakeDevice{total: 8 * 256}}
	j := baseJob()
	j.Pattern = SeqWrite
	j.RangeBytes = 1 * units.MiB
	j.TotalBytesPerJob = 64 * units.KiB // 4 writes of 16 KiB
	j.SyncWrites = true
	res, err := Run(dev, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(dev.zoneFlushes) != int(res.Ops) {
		t.Errorf("flushes = %d, ops = %d", len(dev.zoneFlushes), res.Ops)
	}
	// The flush targets the zone of each written lba (zone cap 1 MiB).
	for _, z := range dev.zoneFlushes {
		if z != 0 {
			t.Errorf("flush of zone %d, want 0", z)
		}
	}
	// Sync latency is part of the measured op latency.
	if res.Lat.P50 < 20*time.Microsecond {
		t.Errorf("sync flush time missing from latency: %v", res.Lat)
	}
	// Without SyncWrites no flushes occur.
	dev2 := &syncDevice{fakeDevice: fakeDevice{total: 8 * 256}}
	j.SyncWrites = false
	if _, err := Run(dev2, j); err != nil {
		t.Fatal(err)
	}
	if len(dev2.zoneFlushes) != 0 {
		t.Errorf("unexpected flushes: %v", dev2.zoneFlushes)
	}
}

// fakeZonedDevice enforces ZNS write-pointer semantics: a write must land
// exactly at its zone's write pointer, and only a reset rewinds it.
type fakeZonedDevice struct {
	fakeDevice
	zoneCap int64 // sectors
	wp      []int64
	resets  []int
}

func (f *fakeZonedDevice) NumZones() int                              { return len(f.wp) }
func (f *fakeZonedDevice) ZoneCapSectors() int64                      { return f.zoneCap }
func (f *fakeZonedDevice) Flush(at sim.Time, _ int) (sim.Time, error) { return at, nil }

func (f *fakeZonedDevice) ResetZone(at sim.Time, zone int) (sim.Time, error) {
	f.resets = append(f.resets, zone)
	f.wp[zone] = 0
	return at.Add(time.Millisecond), nil
}

func (f *fakeZonedDevice) Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error) {
	zone := lba / f.zoneCap
	n := int64(len(payloads))
	if lba != zone*f.zoneCap+f.wp[zone] {
		return at, fmt.Errorf("write lba %d not at zone %d write pointer %d", lba, zone, f.wp[zone])
	}
	if f.wp[zone]+n > f.zoneCap {
		return at, fmt.Errorf("write crosses zone %d capacity", zone)
	}
	f.wp[zone] += n
	return f.fakeDevice.Write(at, lba, payloads)
}

// TestSeqWriteWrapResetsZones loops a sequential writer over its slice
// twice. fio's zonemode=zbd resets a zone before rewriting it after a
// wrap; without the reset the second pass dies with a write-pointer
// violation on any zoned device.
func TestSeqWriteWrapResetsZones(t *testing.T) {
	zoneCap := int64(256 * units.KiB / units.Sector)
	dev := &fakeZonedDevice{
		fakeDevice: fakeDevice{total: 4 * zoneCap},
		zoneCap:    zoneCap,
		wp:         make([]int64, 4),
	}
	j := baseJob()
	j.Pattern = SeqWrite
	j.BlockBytes = 64 * units.KiB
	j.RangeBytes = units.MiB
	j.TotalBytesPerJob = 2 * units.MiB // two full passes over four zones
	res, err := Run(dev, j)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 32 {
		t.Errorf("Ops = %d, want 32", res.Ops)
	}
	if len(dev.resets) != 4 {
		t.Fatalf("resets = %v, want each of the four zones reset once on the second pass", dev.resets)
	}
	for i, z := range dev.resets {
		if z != i {
			t.Errorf("reset %d hit zone %d, want %d", i, z, i)
		}
	}
	if dev.wp[3] != zoneCap {
		t.Errorf("zone 3 write pointer = %d after second pass, want %d", dev.wp[3], zoneCap)
	}
}

// TestSeqWriteWrapOnConZone is the same regression on the real FTL.
func TestSeqWriteWrapOnConZone(t *testing.T) {
	f, err := config.Small().NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	zoneBytes := f.ZoneCapSectors() * units.Sector
	j := Job{
		Name: "wrap", Pattern: SeqWrite,
		BlockBytes:       128 * units.KiB,
		NumJobs:          1,
		RangeBytes:       2 * zoneBytes,
		TotalBytesPerJob: 4 * zoneBytes, // wraps over both zones twice
		FlushAtEnd:       true,
		Seed:             7,
	}
	if _, err := Run(f, j); err != nil {
		t.Fatalf("wrapped sequential write on ConZone: %v", err)
	}
	if f.Stats().ZoneResets < 2 {
		t.Errorf("ZoneResets = %d, want the wrap to reset both zones", f.Stats().ZoneResets)
	}
}

// refusingResetDevice is a zoned device whose zone resets all fail.
type refusingResetDevice struct{ syncDevice }

func (d *refusingResetDevice) ResetZone(at sim.Time, zone int) (sim.Time, error) {
	return at, errors.New("reset refused")
}

// TestDepthOneFollowsQueuedRules pins the two rules a depth-1 job shares
// with a queued one: Elapsed ends at the last completion, not at the last
// operation's trailing PerOpOverhead, and under ContinueOnError a write is
// still issued after its wrap reset failed.
func TestDepthOneFollowsQueuedRules(t *testing.T) {
	dev := &fakeDevice{total: 1 << 20, readLat: time.Microsecond}
	j := baseJob()
	j.PerOpOverhead = 10 * time.Microsecond
	res, err := Run(dev, j)
	if err != nil {
		t.Fatal(err)
	}
	// 16 reads submitted 10 µs apart; the last completes 1 µs after it is
	// submitted at 150 µs.
	if res.Elapsed != 151*time.Microsecond {
		t.Errorf("Elapsed = %v, want 151µs", res.Elapsed)
	}

	zdev := &refusingResetDevice{syncDevice{fakeDevice: fakeDevice{total: 8 * 256}}}
	j = baseJob()
	j.Pattern = SeqWrite
	j.TotalBytesPerJob = 2 * units.MiB // two passes over the 1 MiB zone 0
	j.ContinueOnError = true
	if res, err = Run(zdev, j); err != nil {
		t.Fatal(err)
	}
	if len(zdev.writes) != 128 || res.Ops != 128 || res.IOErrors != 1 {
		t.Errorf("%d writes issued, %d ops, %d errors; want 128 writes and ops around the one failed reset",
			len(zdev.writes), res.Ops, res.IOErrors)
	}
}
