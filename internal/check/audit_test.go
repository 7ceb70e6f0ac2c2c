package check

import (
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/mapping"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/slc"
)

// newAuditFTL builds a ConZone device in a busy, audit-clean state: direct
// program units, a staged partial unit, alignment-tail sectors and a
// buffered run, so every invariant has real state to check.
func newAuditFTL(t *testing.T) *ftl.FTL {
	t.Helper()
	return newAuditFTLWith(t, FuzzConfig())
}

func newAuditFTLWith(t *testing.T, cfg config.DeviceConfig) *ftl.FTL {
	t.Helper()
	f, err := cfg.NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	wr := func(zone int, off, n int64) {
		t.Helper()
		lba := int64(zone)*f.ZoneCapSectors() + off
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = payloadFor(lba+int64(i), 1)
		}
		d, err := f.Write(now, lba, payloads)
		if err != nil {
			t.Fatalf("write zone %d off %d x%d: %v", zone, off, n, err)
		}
		if d > now {
			now = d
		}
	}
	wr(0, 0, 96)  // Fig. 3 ①: full direct program units
	wr(0, 96, 10) // partial unit, staged to SLC on flush
	if _, err := f.Flush(now, 0); err != nil {
		t.Fatal(err)
	}
	wr(1, 0, 30) // another zone: one direct PU + staged partial
	if _, err := f.Flush(now, 1); err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < f.ZoneCapSectors(); off += 64 {
		wr(2, off, 64) // full zone: head + alignment tail in SLC
	}
	wr(3, 0, 7) // left buffered, not flushed
	if err := Audit(f); err != nil {
		t.Fatalf("fresh device should audit clean: %v", err)
	}
	return f
}

// stagedLPA finds an LPA whose mapping points into SLC staging.
func stagedLPA(t *testing.T, f *ftl.FTL) (lpa int64, idx int64) {
	t.Helper()
	for l := int64(0); l < f.TotalSectors(); l++ {
		if psn, ok := f.Table().Get(l); ok && psn >= f.AggLimit() {
			return l, int64(psn - f.AggLimit())
		}
	}
	t.Fatal("no staged mapping found")
	return 0, 0
}

// TestAuditCatchesCorruption desyncs one subsystem at a time and asserts
// the audit reports the specific invariant that broke.
func TestAuditCatchesCorruption(t *testing.T) {
	expect := func(t *testing.T, f *ftl.FTL, slug string) {
		t.Helper()
		err := Audit(f)
		if err == nil {
			t.Fatalf("audit missed the injected %s corruption", slug)
		}
		if !strings.Contains(err.Error(), "audit["+slug+"]") {
			t.Fatalf("audit reported %q, want invariant %q", err, slug)
		}
		agreeWithExhaustive(t, f, "injected "+slug)
	}

	t.Run("stale cache entry", func(t *testing.T) {
		f := newAuditFTL(t)
		// LPA 3 is mapped zone-linearly; cache a wrong translation.
		f.Cache().Insert(mapping.Page, 3, f.AggLimit()+7, false)
		expect(t, f, "cache-stale")
	})

	t.Run("mapping to unprogrammed flash", func(t *testing.T) {
		f := newAuditFTL(t)
		// Zone 0 programmed 96 head sectors; PSN 200 is beyond them.
		if err := f.Table().Set(3, 200); err != nil {
			t.Fatal(err)
		}
		expect(t, f, "map-nand")
	})

	t.Run("mapping crosses zones", func(t *testing.T) {
		f := newAuditFTL(t)
		// Point a zone-0 LPA at zone 1's (programmed) reserved PSN.
		if err := f.Table().Set(3, mapping.PSN(f.ZoneCapSectors()+3)); err != nil {
			t.Fatal(err)
		}
		expect(t, f, "map-zone")
	})

	t.Run("leaked valid staging page", func(t *testing.T) {
		f := newAuditFTL(t)
		// Stage a valid copy that no mapping entry points at: a leak.
		if _, _, _, err := f.Staging().Append(0, []slc.Write{{LPA: 3}}); err != nil {
			t.Fatal(err)
		}
		expect(t, f, "staging-leak")
	})

	t.Run("mapped staging page invalidated", func(t *testing.T) {
		f := newAuditFTL(t)
		_, idx := stagedLPA(t, f)
		// Kill the staged copy while the mapping still references it.
		if err := f.Staging().Invalidate(idx); err != nil {
			t.Fatal(err)
		}
		expect(t, f, "map-staging")
	})

	t.Run("staged head sector outside the partial unit", func(t *testing.T) {
		f := newAuditFTL(t)
		// Zone 0 programmed 96 head sectors and staged [96,106) for a
		// combine. Stage a live copy of LPA 3 and map it there: mapping and
		// staging agree, but a combine at offset 106 would read a unit
		// that is not one run from the programmed extent.
		idxs, _, _, err := f.Staging().Append(0, []slc.Write{{LPA: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Table().Set(3, f.AggLimit()+mapping.PSN(idxs[0])); err != nil {
			t.Fatal(err)
		}
		expect(t, f, "zone-staged")
	})

	t.Run("retired superblock still free", func(t *testing.T) {
		f := newAuditFTL(t)
		free := f.FreeSBList()
		if len(free) == 0 {
			t.Fatal("audit fixture has no free superblock")
		}
		// Record a retirement without pulling the superblock off the free
		// list — the exactly-one-of bound/free/retired identity breaks.
		f.DebugRetireSB(free[0], ftl.BadBlock{
			Chip:  0,
			Block: f.Geometry().FirstNormalBlock() + free[0],
			Op:    fault.OpErase,
		})
		expect(t, f, "sb-retired")
	})

	t.Run("orphan bad-block record", func(t *testing.T) {
		// Arm the fault model (zero rates: nothing fires) so the audit
		// reaches the bad-block/retired-list cross-check itself.
		cfg := FuzzConfig()
		cfg.FTL.Faults = &fault.Config{Seed: 1}
		f := newAuditFTLWith(t, cfg)
		f.DebugAddBadBlock(ftl.BadBlock{Chip: 0, Block: f.Geometry().FirstNormalBlock(), Op: fault.OpProgram})
		expect(t, f, "sb-retired")
	})

	t.Run("retirement with faults disabled", func(t *testing.T) {
		f := newAuditFTL(t)
		// A bad-block record on a device without a fault model is a
		// contradiction in itself.
		f.DebugAddBadBlock(ftl.BadBlock{Chip: 0, Block: f.Geometry().FirstNormalBlock(), Op: fault.OpProgram})
		expect(t, f, "sb-retired")
	})

	t.Run("write pointer without data", func(t *testing.T) {
		f := newAuditFTL(t)
		// Advance zone 1's write pointer as if a write committed, without
		// any data reaching the buffer or media.
		z, err := f.Zones().Zone(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Zones().CommitWrite(z.WP, 4); err != nil {
			t.Fatal(err)
		}
		expect(t, f, "zone-wp")
	})

	t.Run("mapping beyond the write pointer", func(t *testing.T) {
		f := newAuditFTL(t)
		// Rewind zone 1's write pointer behind the FTL's back: its mapping
		// table stays, so every entry now lies beyond the pointer — the
		// part of a zone the audit scans only because a table exists.
		if err := f.Zones().Reset(1); err != nil {
			t.Fatal(err)
		}
		expect(t, f, "zone-wp")
	})

	// The two states the sparse walk could lose: it skips a zone without a
	// mapping table, and in these two the broken zone is one the fixture
	// never wrote.
	t.Run("write pointer without data in an unmapped zone", func(t *testing.T) {
		f := newAuditFTL(t)
		const zone = 5
		if f.Table().Allocated(zone) {
			t.Fatalf("audit fixture wrote zone %d", zone)
		}
		z, err := f.Zones().Zone(zone)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Zones().CommitWrite(z.WP, 4); err != nil {
			t.Fatal(err)
		}
		expect(t, f, "zone-wp")
		if err := Audit(f); !strings.Contains(err.Error(), "committed") || !strings.Contains(err.Error(), "neither mapped nor buffered") {
			t.Fatalf("audit reported %q, want the committed-but-nowhere message", err)
		}
	})

	t.Run("mapping planted in an empty zone", func(t *testing.T) {
		f := newAuditFTL(t)
		const zone = 5
		// One entry beyond the (unmoved) write pointer, at the zone's own
		// reserved PSN: the table it allocates must bring the zone back
		// into the walk, which finds nothing programmed behind it.
		lpa := zone*f.ZoneCapSectors() + 9
		if err := f.Table().Set(lpa, mapping.PSN(lpa)); err != nil {
			t.Fatal(err)
		}
		expect(t, f, "map-phys")
	})
}
