package conzone

import (
	"bytes"
	"sync"
	"testing"
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
		"paper": PaperConfig(), "small": SmallConfig(), "qlc": QLCConfig(),
	} {
		dev, err := Open(cfg)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if dev.Capacity() <= 0 || dev.NumZones() <= 0 || dev.ZoneBytes() <= 0 {
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
