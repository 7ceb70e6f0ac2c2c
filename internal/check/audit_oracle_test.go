package check

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/slc"
	"github.com/conzone/conzone/internal/wbuf"
)

// The exhaustive auditor, kept as the oracle for the sparse one. Audit walks
// the zones mapping.Table has a table for (walkMapping) and, in a zone
// without one, only the sectors below the write pointer (auditZones); these
// three functions are the auditor as it was before that (d14beee, PR 23),
// verbatim: every one of TotalSectors() LPAs asked of Table.Get, twice. The
// tests below require the two to agree — the same refs and headMapped, the
// same verdict, the same message — wherever an audit runs.

func auditExhaustive(f *ftl.FTL) error {
	if err := substrates(f); err != nil {
		return err
	}
	refs, headMapped, err := walkMappingExhaustive(f)
	if err != nil {
		return err
	}
	if total := f.Staging().TotalValid(); int64(len(refs)) != total {
		return fmt.Errorf("audit[staging-leak]: staging holds %d valid sectors but the mapping references %d (%d leaked valid pages)",
			total, len(refs), total-int64(len(refs)))
	}
	if err := auditZonesExhaustive(f, refs, headMapped); err != nil {
		return err
	}
	if err := auditSuperblocks(f); err != nil {
		return err
	}
	if err := auditBadBlocks(f); err != nil {
		return err
	}
	if err := auditStagingExtent(f); err != nil {
		return err
	}
	if err := auditCache(f); err != nil {
		return err
	}
	return auditStats(f)
}

func walkMappingExhaustive(f *ftl.FTL) (map[int64]int64, []int64, error) {
	geo := f.Geometry()
	arr := f.Array()
	reg := f.Staging()
	table := f.Table()
	zoneCap := f.ZoneCapSectors()
	head := f.HeadSectors()
	refs := make(map[int64]int64) // staging linear index -> owning LPA
	headMapped := make([]int64, f.NumZones())
	for lpa, total := int64(0), f.TotalSectors(); lpa < total; lpa++ {
		psn, ok := table.Get(lpa)
		if !ok {
			continue
		}
		addr, err := f.ResolvePSN(psn)
		if err != nil {
			return nil, nil, fmt.Errorf("audit[map-phys]: LPA %d -> PSN %d does not resolve: %w", lpa, psn, err)
		}
		if !arr.IsWritten(geo.PPAOf(addr)) {
			return nil, nil, fmt.Errorf("audit[map-nand]: LPA %d -> PSN %d (%+v) points at an unprogrammed sector", lpa, psn, addr)
		}
		if psn < f.AggLimit() {
			zone := int64(psn) / zoneCap
			if zone != lpa/zoneCap {
				return nil, nil, fmt.Errorf("audit[map-zone]: LPA %d of zone %d holds reserved PSN %d of zone %d",
					lpa, lpa/zoneCap, psn, zone)
			}
			if int64(psn)%zoneCap < head {
				headMapped[zone]++
				continue
			}
			// Alignment-tail PSN: resolves into staging, checked below.
		}
		idx, err := reg.IndexOf(addr)
		if err != nil {
			return nil, nil, fmt.Errorf("audit[map-staging]: LPA %d -> PSN %d: %v", lpa, psn, err)
		}
		if prev, dup := refs[idx]; dup {
			return nil, nil, fmt.Errorf("audit[map-staging]: staging index %d referenced by both LPA %d and LPA %d", idx, prev, lpa)
		}
		if !reg.IsValid(idx) {
			return nil, nil, fmt.Errorf("audit[map-staging]: LPA %d maps to dead staging index %d", lpa, idx)
		}
		rl, err := reg.LPAAt(idx)
		if err != nil || rl != lpa {
			return nil, nil, fmt.Errorf("audit[map-staging]: staging index %d reverse-maps to LPA %d, but LPA %d points at it", idx, rl, lpa)
		}
		refs[idx] = lpa
	}
	return refs, headMapped, nil
}

func auditZonesExhaustive(f *ftl.FTL, refs map[int64]int64, headMapped []int64) error {
	geo := f.Geometry()
	arr := f.Array()
	table := f.Table()
	zm := f.Zones()
	zoneCap := f.ZoneCapSectors()

	runByZone := make(map[int]wbuf.Run)
	for _, r := range f.Buffers().Runs() {
		if _, dup := runByZone[r.Zone]; dup {
			return fmt.Errorf("audit[wbuf-run]: zone %d occupies two write buffers", r.Zone)
		}
		runByZone[r.Zone] = r
	}

	owned := make(map[int64]int) // staging index -> owning zone
	var ownedTotal int64
	for zone := 0; zone < f.NumZones(); zone++ {
		z, err := zm.Zone(zone)
		if err != nil {
			return err
		}
		zd, err := f.ZoneDebugInfo(zone)
		if err != nil {
			return err
		}

		for _, g := range zd.Staged {
			if prev, dup := owned[g]; dup {
				return fmt.Errorf("audit[zone-staged]: staging index %d owned by zones %d and %d", g, prev, zone)
			}
			owned[g] = zone
			lpa, ok := refs[g]
			if !ok {
				return fmt.Errorf("audit[zone-staged]: zone %d owns staging index %d that no mapping entry references", zone, g)
			}
			if lpa < z.Start || lpa >= z.Start+zoneCap {
				return fmt.Errorf("audit[zone-staged]: zone %d owns staging index %d, mapped by LPA %d outside the zone", zone, g, lpa)
			}
		}
		ownedTotal += int64(len(zd.Staged))

		for i, off := range zd.PendOffsets {
			if i > 0 && off != zd.PendOffsets[i-1]+1 {
				return fmt.Errorf("audit[zone-staged]: zone %d pend run discontinuity at offset %d", zone, off)
			}
		}

		if zd.SB >= 0 {
			block := geo.FirstNormalBlock() + zd.SB
			var programmed int64
			for chip := 0; chip < geo.Chips(); chip++ {
				programmed += int64(arr.NextProgramSector(chip, block))
			}
			if programmed != headMapped[zone] {
				return fmt.Errorf("audit[head-extent]: zone %d superblock %d holds %d programmed sectors but %d head-mapped entries",
					zone, zd.SB, programmed, headMapped[zone])
			}
		} else if headMapped[zone] != 0 {
			return fmt.Errorf("audit[head-extent]: zone %d has %d head-mapped entries without a bound superblock", zone, headMapped[zone])
		}

		if zd.Conventional {
			if r, ok := runByZone[zone]; ok {
				if r.StartLBA < z.Start || r.StartLBA+r.Sectors > z.Start+zoneCap {
					return fmt.Errorf("audit[wbuf-run]: conventional zone %d buffers run [%d,%d) outside the zone",
						zone, r.StartLBA, r.StartLBA+r.Sectors)
				}
			}
			continue
		}

		if z.WP < z.Start || z.WP > z.Start+z.Capacity {
			return fmt.Errorf("audit[zone-wp]: zone %d write pointer %d outside [%d,%d]", zone, z.WP, z.Start, z.Start+z.Capacity)
		}
		r, buffered := runByZone[zone]
		if buffered && r.StartLBA+r.Sectors != z.WP {
			return fmt.Errorf("audit[zone-wp]: zone %d buffered run ends at %d but write pointer is %d", zone, r.StartLBA+r.Sectors, z.WP)
		}
		for lpa := z.Start; lpa < z.Start+zoneCap; lpa++ {
			inBuf := buffered && lpa >= r.StartLBA && lpa < r.StartLBA+r.Sectors
			_, mapped := table.Get(lpa)
			committed := lpa < z.WP
			switch {
			case mapped && !committed:
				return fmt.Errorf("audit[zone-wp]: zone %d LPA %d mapped beyond write pointer %d", zone, lpa, z.WP)
			case mapped && inBuf:
				return fmt.Errorf("audit[zone-wp]: zone %d LPA %d both mapped and write-buffered", zone, lpa)
			case !mapped && committed && !inBuf:
				return fmt.Errorf("audit[zone-wp]: zone %d LPA %d committed (WP %d) but neither mapped nor buffered", zone, lpa, z.WP)
			}
		}
	}
	if ownedTotal != int64(len(refs)) {
		return fmt.Errorf("audit[zone-staged]: zones own %d staging indices but the mapping references %d", ownedTotal, len(refs))
	}
	return nil
}

// agreeWithExhaustive fails unless the sparse and the exhaustive auditors
// agree on f: the same mapping walk and the same verdict, word for word.
func agreeWithExhaustive(t testing.TB, f *ftl.FTL, where string) {
	t.Helper()
	refs, head, err := walkMapping(f)
	xrefs, xhead, xerr := walkMappingExhaustive(f)
	if fmt.Sprint(err) != fmt.Sprint(xerr) || !reflect.DeepEqual(refs, xrefs) || !reflect.DeepEqual(head, xhead) {
		t.Fatalf("%s: sparse walk (%d refs, head %v, %v) != exhaustive walk (%d refs, head %v, %v)",
			where, len(refs), head, err, len(xrefs), xhead, xerr)
	}
	if got, want := audit(f), auditExhaustive(f); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: sparse audit says %v, exhaustive audit says %v", where, got, want)
	}
}

// paperThreeZones builds the device the bench's crashmount iteration audits:
// config.Paper() with 3 of its 96 zones written — two full, one to three
// quarters — in 8-sector writes with a zone flush every 64, so partial
// units sit in SLC beside their combined copies. Timing-only payloads.
func paperThreeZones(tb testing.TB) *ftl.FTL {
	tb.Helper()
	f, err := config.Paper().NewConZone()
	if err != nil {
		tb.Fatal(err)
	}
	zcap := f.ZoneCapSectors()
	var now sim.Time
	at := func(done sim.Time, err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		now = max(now, done)
	}
	for z, sectors := range []int64{zcap, zcap, zcap * 3 / 4} {
		for off := int64(0); off < sectors; off += 8 {
			at(f.Write(now, int64(z)*zcap+off, make([][]byte, 8)))
			if (off/8+1)%64 == 0 {
				at(f.Flush(now, z))
			}
		}
	}
	return f
}

// TestSparseAuditMatchesExhaustive runs both auditors side by side wherever
// the suite audits a ConZone FTL on its acceptance stream — every 64 ops of
// TestFuzzDeviceOps10K's sequence, resets and GC included — and on a
// config.Paper() device with 3 of 96 zones written, live and mounted.
func TestSparseAuditMatchesExhaustive(t *testing.T) {
	t.Run("fuzz stream", func(t *testing.T) {
		cfg := FuzzConfig()
		r, err := newReplayer(ConZone, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f := r.dev.(*ftl.FTL)
		points := 0
		for i, op := range GenOps(0x5EED1, 10000, f.NumZones(), f.ZoneCapSectors()) {
			err := r.step(op)
			if errors.Is(err, slc.ErrNoSpace) || errors.Is(err, fault.ErrReadOnly) {
				break
			}
			if err != nil {
				t.Fatalf("op %d (%s): %v", i, op, err)
			}
			if (i+1)%64 == 0 {
				agreeWithExhaustive(t, f, fmt.Sprintf("after op %d", i))
				points++
			}
		}
		if points < 10000/64 {
			t.Fatalf("only %d audit points compared", points)
		}
	})
	t.Run("paper, 3 of 96 zones", func(t *testing.T) {
		f := paperThreeZones(t)
		agreeWithExhaustive(t, f, "live")
		if err := audit(f); err != nil {
			t.Fatal(err)
		}
		f, _, err := f.Remount()
		if err != nil {
			t.Fatal(err)
		}
		agreeWithExhaustive(t, f, "mounted")
		if err := audit(f); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkAuditPaper is what one check.Audit costs on the device a crashmount
// iteration audits twice: the cost follows the 3 written zones, not the 96.
func BenchmarkAuditPaper(b *testing.B) {
	f := paperThreeZones(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Audit(f); err != nil {
			b.Fatal(err)
		}
	}
}
