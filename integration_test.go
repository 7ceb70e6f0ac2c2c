package conzone

// Cross-cutting integration tests that exercise the public API end to end:
// traces replayed across device models, mixed workloads with integrity
// verification, and the §III-E extensions (conventional zones, L2P log)
// through the byte-level Device facade.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/trace"
	"github.com/conzone/conzone/internal/zns"
)

func TestIntegrationConventionalZonePublicAPI(t *testing.T) {
	cfg := PaperConfig()
	cfg.FTL.ConventionalZones = 1
	dev, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	z, err := dev.Zone(0)
	if err != nil || z.Type != zns.Conventional {
		t.Fatalf("zone 0 = %+v, %v", z, err)
	}
	// In-place metadata-style updates at arbitrary offsets.
	slotA := make([]byte, 4096)
	slotB := make([]byte, 4096)
	for i := range slotA {
		slotA[i], slotB[i] = 0xA1, 0xB2
	}
	if err := dev.Write(64*4096, slotA); err != nil {
		t.Fatal(err)
	}
	if err := dev.Write(64*4096, slotB); err != nil {
		t.Fatal(err)
	}
	if err := dev.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := dev.Read(64*4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, slotB) {
		t.Error("in-place update lost")
	}
	if err := dev.ResetZone(0); !errors.Is(err, zns.ErrConventional) {
		t.Errorf("reset of conventional zone = %v", err)
	}
	// Sequential zones still behave as before.
	if err := dev.Write(dev.ZoneBytes(), make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := dev.ResetZone(1); err != nil {
		t.Fatal(err)
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestIntegrationL2PLogPublicAPI(t *testing.T) {
	cfg := SmallConfig()
	cfg.FTL.L2PLogEntries = 256
	dev, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 96*4096)
	for z := int64(0); z < 3; z++ {
		if err := dev.Write(z*dev.ZoneBytes(), data); err != nil {
			t.Fatal(err)
		}
	}
	st := dev.Stats()
	if st.FTL.L2PLogFlushes == 0 {
		t.Error("L2P log never flushed")
	}
	if st.NAND.MapPrograms != st.FTL.L2PLogPages {
		t.Errorf("map programs %d != log pages %d", st.NAND.MapPrograms, st.FTL.L2PLogPages)
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestIntegrationTraceAcrossModels captures one trace and replays it on
// ConZone and FEMU (QLC geometry: identical zone layout), checking the
// replay is accepted everywhere and that ConZone reports the consumer-
// specific events FEMU cannot model.
func TestIntegrationTraceAcrossModels(t *testing.T) {
	var recs []trace.Record
	at := time.Duration(0)
	off := map[int32]int64{}
	for i := 0; i < 240; i++ {
		// Zones 0 and 2 share write buffer 0: alternating between them
		// evicts on every switch.
		zone := int32(i%2) * 2
		recs = append(recs, trace.Record{
			At: at, Op: trace.OpWrite,
			LBA: int64(zone)*4096 + off[zone], Sectors: 12,
		})
		off[zone] += 12
		at += 40 * time.Microsecond
	}
	recs = append(recs, trace.Record{At: at, Op: trace.OpFlush})
	recs = append(recs, trace.Record{At: at, Op: trace.OpRead, LBA: 0, Sectors: 128})

	cfg := config.QLC()
	cz, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := NewFEMU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := trace.Replay(cz.FTL(), recs)
	if err != nil {
		t.Fatalf("conzone replay: %v", err)
	}
	rf, err := trace.Replay(fm, recs)
	if err != nil {
		t.Fatalf("femu replay: %v", err)
	}
	if rc.Records != rf.Records || rc.Records != int64(len(recs)) {
		t.Errorf("record counts: cz=%d femu=%d", rc.Records, rf.Records)
	}
	if cz.Stats().FTL.PrematureFlushes == 0 {
		t.Error("alternating zones on shared buffers should evict")
	}
	if err := cz.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestIntegrationMixedWorkloadIntegrity runs a write job with real
// payloads, then reads everything back through the byte API and checks
// content against the workload's deterministic fill.
func TestIntegrationMixedWorkloadIntegrity(t *testing.T) {
	cfg := SmallConfig()
	dev, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := dev.FTL()
	job := Job{
		Name: "integrity", Pattern: SeqWrite,
		BlockBytes: 48 << 10, NumJobs: 2,
		RangeBytes:       2 * dev.ZoneBytes(),
		TotalBytesPerJob: dev.ZoneBytes() - (dev.ZoneBytes() % (48 << 10)),
		WithData:         true,
		FlushAtEnd:       true,
		PerOpOverhead:    5 * time.Microsecond,
		Seed:             5,
	}
	res, err := RunJob(f, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 2*job.TotalBytesPerJob {
		t.Errorf("bytes = %d", res.Bytes)
	}
	// The workload's fill pattern: byte j of sector lba is (lba*13+j)%251.
	sectors := res.Bytes / SectorSize
	_ = sectors
	for _, startSector := range []int64{0, 11, 500} {
		got, err := dev.Read(startSector*SectorSize, int(SectorSize))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 16; j++ {
			want := byte((startSector*13 + int64(j)) % 251)
			if got[j] != want {
				t.Fatalf("sector %d byte %d: got %d want %d", startSector, j, got[j], want)
			}
		}
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestIntegrationAllModelsSurviveTortureMix drives every device model with
// the same mixed read/write stream through the workload engine.
func TestIntegrationAllModelsSurviveTortureMix(t *testing.T) {
	cfg := SmallConfig()
	devices := map[string]WorkloadDevice{}
	cz, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	devices["conzone"] = cz.FTL()
	if lg, err := NewLegacy(cfg); err == nil {
		devices["legacy"] = lg
	} else {
		t.Fatal(err)
	}
	if fm, err := NewFEMU(cfg); err == nil {
		devices["femu"] = fm
	} else {
		t.Fatal(err)
	}
	if cz2, err := NewConfZNS(cfg); err == nil {
		devices["confzns"] = cz2
	} else {
		t.Fatal(err)
	}
	for name, dev := range devices {
		wjob := Job{
			Name: name + "-w", Pattern: SeqWrite, BlockBytes: 96 << 10,
			NumJobs: 1, RangeBytes: 2 << 20, TotalBytesPerJob: 1344 << 10,
			FlushAtEnd: true, Seed: 3,
		}
		wres, err := RunJob(dev, wjob)
		if err != nil {
			t.Fatalf("%s write: %v", name, err)
		}
		rjob := Job{
			Name: name + "-r", Pattern: RandRead, BlockBytes: 4 << 10,
			NumJobs: 1, RangeBytes: 1344 << 10, TotalBytesPerJob: 512 << 10,
			Seed: 9, StartAt: Time(0).Add(wres.Elapsed),
		}
		rres, err := RunJob(dev, rjob)
		if err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		if rres.IOPS <= 0 || wres.BandwidthMiBps <= 0 {
			t.Errorf("%s: degenerate results %v %v", name, wres, rres)
		}
	}
	if err := cz.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
