package check

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/zns"
)

// movedStream is a seeded, stamped write stream on FuzzConfig() that drives
// every path along which the device moves data it already holds. Four
// sequential zones on two write buffers flush partial program units to SLC
// and combine them (Fig. 3 ③), and are reset once full; a conventional zone
// updated in place keeps live sectors in every SLC superblock, so staging
// GC has to migrate them; and one scripted program failure relocates a
// zone's superblock to a spare; from then on the stream resets no zone that
// held data, so what the relocation moved is still there to read back.
// ver is the model: the version of each LBA's latest write, whose stamp
// (lba, version) is what the LBA must read back.
type movedStream struct {
	f      *ftl.FTL
	rng    *sim.Rand
	now    sim.Time
	ver    map[int64]uint64
	next   uint64
	frozen map[int]bool // zones a reset must not touch
}

// movedStreamConfig is FuzzConfig() with zone 0 conventional, one spare
// superblock and a script failing the tenth program on chip 0 of the first
// normal block.
func movedStreamConfig() config.DeviceConfig {
	cfg := FuzzConfig()
	cfg.FTL.ConventionalZones = 1
	cfg.FTL.SpareSuperblocks = 1
	cfg.FTL.Faults = &fault.Config{Seed: 1, Scripts: []fault.Script{
		{Chip: 0, Block: cfg.Geometry.FirstNormalBlock(), Op: fault.OpProgram, N: 10},
	}}
	return cfg
}

// movedStamp fills p with the stamp of version v of lba.
func movedStamp(p []byte, lba int64, v uint64) {
	x := uint64(lba)*0x9E3779B97F4A7C15 ^ v*0xBF58476D1CE4E5B9
	for i := 0; i < len(p); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(p[i:], x)
	}
}

// write stamps and writes n sectors at lba.
func (s *movedStream) write(lba, n int64) error {
	payloads := make([][]byte, n)
	for i := range payloads {
		s.next++
		payloads[i] = make([]byte, units.Sector)
		movedStamp(payloads[i], lba+int64(i), s.next)
		s.ver[lba+int64(i)] = s.next
	}
	d, err := s.f.Write(s.now, lba, payloads)
	if err == nil {
		s.now = max(s.now, d)
	}
	return err
}

// step is one operation of the stream: an in-place update of the
// conventional zone, a small write at a sequential zone's write pointer, a
// zone flush now and then, or the reset of a full sequential zone.
func (s *movedStream) step() error {
	zone := int(s.rng.Int63n(5))
	z, _ := s.f.Zones().Zone(zone)
	n := []int64{1, 2, 4, 8, 12, 16}[s.rng.Int63n(6)]
	switch {
	case s.rng.Float64() < 0.1:
		d, err := s.f.Flush(s.now, zone)
		if err == nil {
			s.now = max(s.now, d)
		}
		return err
	case z.Type == zns.Conventional:
		return s.write(z.Start+s.rng.Int63n(z.Capacity-n+1), n)
	case z.WP == z.Start+z.Capacity:
		if s.frozen[zone] {
			return nil
		}
		return s.reset(zone)
	}
	return s.write(z.WP, min(n, z.Start+z.Capacity-z.WP))
}

// reset resets a sequential zone and drops its LBAs from the model.
func (s *movedStream) reset(zone int) error {
	z, _ := s.f.Zones().Zone(zone)
	d, err := s.f.ResetZone(s.now, zone)
	if err != nil {
		return err
	}
	s.now = max(s.now, d)
	for lba := z.Start; lba < z.WP; lba++ {
		delete(s.ver, lba)
	}
	return nil
}

// verify reads back every written LBA — each one below a sequential zone's
// write pointer, each one the model holds in a conventional zone — checks
// it against the model, and audits the device.
func (s *movedStream) verify(t *testing.T, phase string) {
	t.Helper()
	want := make([]byte, units.Sector)
	for zone := 0; zone < s.f.NumZones(); zone++ {
		z, _ := s.f.Zones().Zone(zone)
		end := z.WP
		if z.Type == zns.Conventional {
			end = z.Start + z.Capacity
		}
		for lba := z.Start; lba < end; lba++ {
			v, ok := s.ver[lba]
			if !ok {
				if z.Type == zns.Conventional {
					continue
				}
				t.Fatalf("%s: LBA %d is below zone %d's write pointer %d but was never written", phase, lba, zone, z.WP)
			}
			got, d, err := s.f.Read(s.now, lba, 1)
			if err != nil {
				t.Fatalf("%s: read of LBA %d: %v", phase, lba, err)
			}
			s.now = max(s.now, d)
			movedStamp(want, lba, v)
			if string(got[0]) != string(want) {
				t.Fatalf("%s: LBA %d does not read back its stamp (version %d)", phase, lba, v)
			}
		}
	}
	if err := Audit(s.f); err != nil {
		t.Fatalf("%s: %v", phase, err)
	}
}

// TestMovedPayloadsPinned pins that a combine, staging GC and bad-block
// relocation move no byte of what the media holds: a stamped stream that
// runs all three, a power cut and its recovery, and an image round trip
// read back every stamp at each phase, and the saved image — every payload,
// OOB stamp, counter and journal record — hashes to the value pinned below.
func TestMovedPayloadsPinned(t *testing.T) {
	const want = "5d12ee6f091623869b801d76e4b67f4ae2c09a17bf8a0b0d9e7751e827e29659"
	cfg := movedStreamConfig()
	f, err := cfg.NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	s := &movedStream{f: f, rng: sim.NewRand(0x5EED35), ver: map[int64]uint64{}, frozen: map[int]bool{}}
	for i := 0; i < 3000; i++ {
		if err := s.step(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if len(s.frozen) == 0 && f.Stats().Relocations > 0 {
			for zone := 0; zone < f.NumZones(); zone++ {
				if z, _ := f.Zones().Zone(zone); z.WP > z.Start {
					s.frozen[zone] = true
				}
			}
		}
	}
	st, migrated := f.Stats(), f.Staging().Stats().Migrated
	t.Logf("%d combines, %d staged sectors migrated, %d superblock relocations (%d sectors)",
		st.Combines, migrated, st.Relocations, st.RelocatedSectors)
	if st.Combines == 0 || migrated == 0 || st.Relocations != 1 {
		t.Fatal("want some combines, some migrated sectors and one relocation")
	}
	s.verify(t, "live")

	// Reset the full sequential zones to make room, make everything
	// durable, then cut power a little ahead and keep writing the
	// sequential zones until the device dies: what landed before the cut
	// must read back, whichever path put it there.
	for zone := 1; zone < f.NumZones(); zone++ {
		if z, _ := f.Zones().Zone(zone); z.WP == z.Start+z.Capacity {
			if err := s.reset(zone); err != nil {
				t.Fatal(err)
			}
		}
	}
	d, err := f.FlushAll(s.now)
	if err != nil {
		t.Fatal(err)
	}
	s.now = d
	arr := f.Array()
	arr.ArmPowerCut(s.now + sim.Time(200_000))
	for i := 0; !arr.PowerLost(); i++ {
		z, _ := f.Zones().Zone(1 + int(s.rng.Int63n(4)))
		if i == 10000 {
			t.Fatal("the device outlived its power cut")
		}
		if z.WP == z.Start+z.Capacity {
			continue
		}
		if err := s.write(z.WP, min(8, z.Start+z.Capacity-z.WP)); err != nil && !errors.Is(err, nand.ErrPowerLoss) {
			t.Fatalf("write %d before the cut: %v", i, err)
		}
	}
	if s.f, _, err = ftl.Recover(arr, cfg.FTL); err != nil {
		t.Fatal(err)
	}
	s.verify(t, "recovered")

	path := filepath.Join(t.TempDir(), "moved.img")
	if err := s.f.Array().SaveImage(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := nand.LoadArray(path, cfg.Latency)
	if err != nil {
		t.Fatal(err)
	}
	if s.f, _, err = ftl.Recover(loaded, cfg.FTL); err != nil {
		t.Fatal(err)
	}
	s.verify(t, "reopened")
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Fatalf("the image saves to sha256 %s, pinned %s", got, want)
	}
}
