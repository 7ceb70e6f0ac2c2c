package conzone

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/sim"
)

func openSmall(t *testing.T) *Device {
	t.Helper()
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func pattern(off int64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((off + int64(i)) % 239)
	}
	return b
}

func TestOpenConfigs(t *testing.T) {
	for name, cfg := range map[string]Config{
		"paper": PaperConfig(), "small": SmallConfig(), "qlc": config.QLC(),
	} {
		dev, err := Open(cfg)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if dev.NumZones() <= 0 || dev.ZoneBytes() <= 0 {
			t.Errorf("%s: degenerate device", name)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dev := openSmall(t)
	data := pattern(0, 96*4096)
	if err := dev.Write(0, data); err != nil {
		t.Fatal(err)
	}
	got, err := dev.Read(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
	if dev.Now() <= 0 {
		t.Error("virtual clock did not advance")
	}
}

func TestAlignmentEnforced(t *testing.T) {
	dev := openSmall(t)
	if err := dev.Write(1, make([]byte, 4096)); err == nil {
		t.Error("unaligned offset accepted")
	}
	if err := dev.Write(0, make([]byte, 100)); err == nil {
		t.Error("unaligned length accepted")
	}
	if _, err := dev.Read(0, 0); err == nil {
		t.Error("zero read accepted")
	}
	if _, err := dev.Read(-4096, 4096); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestSequentialityEnforced(t *testing.T) {
	dev := openSmall(t)
	if err := dev.Write(8192, make([]byte, 4096)); err == nil {
		t.Error("write off the write pointer accepted")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	dev := openSmall(t)
	got, err := dev.Read(0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten data not zero")
		}
	}
}

func TestZoneLifecycle(t *testing.T) {
	dev := openSmall(t)
	if err := dev.OpenZone(1); err != nil {
		t.Fatal(err)
	}
	z, err := dev.Zone(1)
	if err != nil || z.State.String() != "EXPLICIT_OPEN" {
		t.Errorf("zone = %+v, %v", z, err)
	}
	if err := dev.CloseZone(1); err != nil {
		t.Fatal(err)
	}
	if err := dev.FinishZone(1); err != nil {
		t.Fatal(err)
	}
	if err := dev.ResetZone(1); err != nil {
		t.Fatal(err)
	}
	z, _ = dev.Zone(1)
	if z.State.String() != "EMPTY" {
		t.Errorf("state after reset = %v", z.State)
	}
	if len(dev.Zones()) != dev.NumZones() {
		t.Error("report size wrong")
	}
}

func TestResetZoneErasesData(t *testing.T) {
	dev := openSmall(t)
	data := pattern(0, 96*4096)
	if err := dev.Write(0, data); err != nil {
		t.Fatal(err)
	}
	if err := dev.ResetZone(0); err != nil {
		t.Fatal(err)
	}
	got, err := dev.Read(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("data survived reset")
		}
	}
}

func TestFlushAndStats(t *testing.T) {
	dev := openSmall(t)
	if err := dev.Write(0, pattern(0, 5*4096)); err != nil {
		t.Fatal(err)
	}
	if err := dev.FlushZone(0); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.FTL.StagedSectors != 5 {
		t.Errorf("staged = %d", st.FTL.StagedSectors)
	}
	// 5 staged sectors = one full SLC page program + one 4 KiB partial.
	if st.NAND.PageProgramsSLC != 1 || st.NAND.PartialPrograms != 1 {
		t.Errorf("SLC programs = %d page + %d partial", st.NAND.PageProgramsSLC, st.NAND.PartialPrograms)
	}
	if st.WAF <= 0 {
		t.Error("WAF should be positive after writes")
	}
	if err := dev.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	dev := openSmall(t)
	var wg sync.WaitGroup
	// Four goroutines write their own zones; the device must serialise
	// without data races (run with -race).
	for z := 0; z < 4; z++ {
		wg.Add(1)
		go func(zone int64) {
			defer wg.Done()
			base := zone * dev.ZoneBytes()
			for i := int64(0); i < 8; i++ {
				off := base + i*48*1024
				if err := dev.Write(off, pattern(off, 48*1024)); err != nil {
					t.Errorf("zone %d: %v", zone, err)
					return
				}
			}
		}(int64(z))
	}
	wg.Wait()
	for z := int64(0); z < 4; z++ {
		base := z * dev.ZoneBytes()
		got, err := dev.Read(base, 8*48*1024)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 0, 8*48*1024)
		for i := int64(0); i < 8; i++ {
			want = append(want, pattern(base+i*48*1024, 48*1024)...)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("zone %d corrupted", z)
		}
	}
}

func TestRunJobOnAllModels(t *testing.T) {
	cfg := SmallConfig()
	cz, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLegacy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := NewFEMU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{
		Name:             "seqwrite",
		Pattern:          SeqWrite,
		BlockBytes:       96 * 1024,
		NumJobs:          1,
		RangeBytes:       2 * 1024 * 1024, // one zone of the small config
		TotalBytesPerJob: 1344 * 1024,     // fits a FEMU zone (1.5 MiB) too
		FlushAtEnd:       true,
		Seed:             1,
	}
	for name, dev := range map[string]WorkloadDevice{
		"conzone": cz.FTL(), "legacy": lg, "femu": fm,
	} {
		res, err := RunJob(dev, job)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.BandwidthMiBps <= 0 || res.Ops == 0 {
			t.Errorf("%s: empty result %+v", name, res)
		}
	}
}

func TestDeviceSatisfiesWorkloadInterfaces(t *testing.T) {
	dev := openSmall(t)
	var _ WorkloadDevice = dev.FTL()
}

// TestDeviceSyncOpsMatchDirectFTL pins that every synchronous Device method
// is the queue-depth-1 round trip and nothing more: each of the eight, run
// on a Device, leaves the same completion instant, result, zone report,
// FTL counters and media counters as the same op on a bare FTL built from
// the same configuration. Reads cover sectors on media, sectors still in a
// write buffer and sectors never written, and one write is refused.
func TestDeviceSyncOpsMatchDirectFTL(t *testing.T) {
	cfg := SmallConfig()
	dev, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := cfg.NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	zs := dev.ZoneBytes() / SectorSize
	type result struct {
		off  int64  // Append's byte offset
		data []byte // ReadInto's bytes
	}
	// op is one command in both forms: through the Device, and on the FTL
	// at the instant the FTL's own clock has reached.
	type op struct {
		dev    func(*Device) (result, error)
		direct func(now sim.Time) (result, sim.Time, error)
	}
	write := func(zone int, at, n int64) op {
		off := (int64(zone)*zs + at) * SectorSize
		data := pattern(off, int(n*SectorSize))
		return op{func(d *Device) (result, error) { return result{}, d.Write(off, data) },
			func(now sim.Time) (result, sim.Time, error) {
				done, err := f.Write(now, off/SectorSize, toSectors(data))
				return result{}, done, err
			}}
	}
	appendTo := func(zone int, n int64) op {
		data := pattern(int64(zone), int(n*SectorSize))
		return op{func(d *Device) (result, error) {
			off, err := d.Append(zone, data)
			return result{off: off}, err
		}, func(now sim.Time) (result, sim.Time, error) {
			lba, done, err := f.Append(now, zone, toSectors(data))
			return result{off: lba * SectorSize}, done, err
		}}
	}
	read := func(zone int, at, n int64) op {
		lba := int64(zone)*zs + at
		return op{func(d *Device) (result, error) {
			dst := bytes.Repeat([]byte{0xA5}, int(n*SectorSize)) // ReadInto must clear unwritten sectors
			err := d.ReadInto(lba*SectorSize, dst)
			return result{data: dst}, err
		}, func(now sim.Time) (result, sim.Time, error) {
			views := make([][]byte, n)
			done, err := f.ReadInto(now, lba, n, views)
			out := make([]byte, n*SectorSize)
			for i, v := range views {
				copy(out[int64(i)*SectorSize:], v)
			}
			return result{data: out}, done, err
		}}
	}
	zoneOp := func(devOp func(*Device, int) error, ftlOp func(sim.Time, int) (sim.Time, error), zone int) op {
		return op{func(d *Device) (result, error) { return result{}, devOp(d, zone) },
			func(now sim.Time) (result, sim.Time, error) {
				done, err := ftlOp(now, zone)
				return result{}, done, err
			}}
	}
	flushAll := op{func(d *Device) (result, error) { return result{}, d.Flush() },
		func(now sim.Time) (result, sim.Time, error) {
			done, err := f.FlushAll(now)
			return result{}, done, err
		}}
	steps := []struct {
		name string
		op
	}{
		{"Write z0 [0,200)", write(0, 0, 200)},
		{"ReadInto z0 media+buffer+unwritten", read(0, 0, 256)},
		{"Append z1 24", appendTo(1, 24)},
		{"Append z1 40", appendTo(1, 40)},
		{"Write z0 off the write pointer", write(0, 208, 8)},
		{"FlushZone z0", zoneOp((*Device).FlushZone, f.Flush, 0)},
		{"ReadInto z0 after flush", read(0, 0, 256)},
		{"CloseZone z1", zoneOp((*Device).CloseZone, f.CloseZone, 1)},
		{"Write z2 [0,24)", write(2, 0, 24)},
		{"FinishZone z2", zoneOp((*Device).FinishZone, f.FinishZone, 2)},
		{"ReadInto z2 padded", read(2, 0, 64)},
		{"ResetZone z0", zoneOp((*Device).ResetZone, f.ResetZone, 0)},
		{"ReadInto z0 after reset", read(0, 0, 16)},
		{"Write z3 [0,8)", write(3, 0, 8)},
		{"Write z4 [0,8)", write(4, 0, 8)},
		{"Flush", flushAll},
		{"ReadInto z3 after flush", read(3, 0, 16)},
	}
	var now sim.Time
	for _, s := range steps {
		got, devErr := s.dev(dev)
		want, done, ftlErr := s.direct(now)
		if fmt.Sprint(devErr) != fmt.Sprint(ftlErr) {
			t.Fatalf("%s: device err %v, FTL err %v", s.name, devErr, ftlErr)
		}
		if ftlErr == nil && done > now {
			now = done
		}
		if dev.Now() != time.Duration(now) {
			t.Fatalf("%s: device clock %v, FTL completion %v", s.name, dev.Now(), time.Duration(now))
		}
		if got.off != want.off || !bytes.Equal(got.data, want.data) {
			t.Fatalf("%s: device result differs from the FTL's (offset %d vs %d)", s.name, got.off, want.off)
		}
		if !reflect.DeepEqual(dev.Zones(), f.Zones().Report()) {
			t.Fatalf("%s: zone reports differ", s.name)
		}
		if dev.FTL().Stats() != f.Stats() {
			t.Fatalf("%s: ftl.Stats differ:\n  device %+v\n  FTL    %+v", s.name, dev.FTL().Stats(), f.Stats())
		}
		if dev.FTL().Array().Counters() != f.Array().Counters() {
			t.Fatalf("%s: nand.Counters differ", s.name)
		}
	}
	if now == 0 {
		t.Fatal("no step took virtual time: the comparison proves nothing")
	}
}
