package ftl

import (
	"testing"

	"github.com/conzone/conzone/internal/mapping"
)

// sameTranslations fails unless twin maps exactly the LPAs live maps, each to
// the same physical sector. The PSNs may differ in form — a tail sector is
// zone-linear on one device and staged on the other when only one of them
// still holds the tail as a single staging run — but never in what they
// resolve to.
func sameTranslations(t *testing.T, live, twin *FTL) {
	t.Helper()
	for lpa := int64(0); lpa < live.TotalSectors(); lpa++ {
		lp, lok := live.table.Get(lpa)
		tp, tok := twin.table.Get(lpa)
		if lok != tok {
			t.Fatalf("LPA %d: mapped on the live device %v, on the mounted one %v", lpa, lok, tok)
		}
		if !lok {
			continue
		}
		la, err := live.psnLoc(lp)
		if err != nil {
			t.Fatal(err)
		}
		ta, err := twin.psnLoc(tp)
		if err != nil {
			t.Fatalf("LPA %d: mounted PSN %d does not resolve: %v", lpa, tp, err)
		}
		if la != ta {
			t.Fatalf("LPA %d: live device reads %+v (PSN %d), mounted one %+v (PSN %d)", lpa, la, lp, ta, tp)
		}
	}
}

// TestMountMatchesLive: after every oracle stream, in every configuration,
// a flushed device and the twin Recover mounts over the same media are the
// same device — every LPA resolves to the same physical sector, every zone
// has the same state, write pointer, bound superblock, pending partial unit
// and staged ownership. The twin's map bits are always the rescan rule's
// (rescanShadow), and they are the live device's wherever that rule decides
// the live ones: over the same PSNs they may differ only where a zone-level
// demotion had flattened the live device's below the rule.
func TestMountMatchesLive(t *testing.T) {
	variants := map[string]func(*Params){
		"BITMAP":         func(p *Params) { p.Search = Bitmap },
		"MULTIPLE":       func(p *Params) { p.Search = Multiple },
		"PINNED":         func(p *Params) { p.Search = Pinned },
		"BITMAP/noagg":   func(p *Params) { p.Search, p.DisableAggregation = Bitmap, true },
		"MULTIPLE/noagg": func(p *Params) { p.Search, p.DisableAggregation = Multiple, true },
		"PINNED/noagg":   func(p *Params) { p.Search, p.DisableAggregation = Pinned, true },
		"PINNED/nozone":  func(p *Params) { p.Search, p.AggregateZones = Pinned, false },
	}
	var decided, flattened int
	for _, st := range aggStreams {
		for name, mut := range variants {
			t.Run(st.name+"/"+name, func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					o := newAggOracle(t, seed, mut)
					o.unchecked = true
					st.run(o)
					live := o.f
					for zone := 0; zone < live.numZones; zone++ {
						// Close, not just flush: a mount knows no open zones.
						if z, _ := live.zones.Zone(zone); live.zones.CanClose(zone) == nil {
							if _, err := live.CloseZone(o.at, zone); err != nil {
								t.Fatalf("close zone %d (%+v): %v", zone, z, err)
							}
						}
					}
					twin, _, err := Recover(live.arr, live.params)
					if err != nil {
						t.Fatal(err)
					}
					if err := twin.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					sameTranslations(t, live, twin)
					sameForm := make([]bool, live.numZones) // the zone's PSNs are identical, not just what they resolve to
					for zone := 0; zone < live.numZones; zone++ {
						sameForm[zone] = true
						for lpa := int64(zone) * live.zoneCap; lpa < int64(zone+1)*live.zoneCap; lpa++ {
							lp, _ := live.table.Get(lpa)
							tp, _ := twin.table.Get(lpa)
							sameForm[zone] = sameForm[zone] && lp == tp
						}
						lz, _ := live.zones.Zone(zone)
						tz, _ := twin.zones.Zone(zone)
						if lz != tz {
							t.Errorf("seed %d zone %d: live %+v, mounted %+v", seed, zone, lz, tz)
						}
						// The binding and the zone type must match; how the tail
						// is held may differ (see sameTranslations).
						if ld, td := live.zstate[zone], twin.zstate[zone]; ld.sb != td.sb || ld.conv != td.conv {
							t.Errorf("seed %d zone %d bookkeeping: live %+v, mounted %+v", seed, zone, ld, td)
						}
					}
					liveRule, twinRule := rescanShadow(t, live), rescanShadow(t, twin)
					for lpa := int64(0); lpa < live.TotalSectors(); lpa++ {
						lb, tb := live.table.Bits(lpa), twin.table.Bits(lpa)
						if tb != twinRule.Bits(lpa) {
							t.Fatalf("seed %d: mounted map bits of LPA %d = %v, the rescan rule gives %v", seed, lpa, tb, twinRule.Bits(lpa))
						}
						switch zone := lpa / live.zoneCap; {
						case lb == tb:
							if lb != mapping.Page {
								decided++
							}
						case lb != liveRule.Bits(lpa):
							flattened++
							if lb != mapping.Page {
								t.Fatalf("seed %d: live map bits of LPA %d = %v, above the rescan rule's %v", seed, lpa, lb, liveRule.Bits(lpa))
							}
						case sameForm[zone]:
							t.Fatalf("seed %d: map bits of LPA %d: live %v, mounted %v, over the same PSNs", seed, lpa, lb, tb)
						}
					}
				}
			})
		}
	}
	if decided == 0 {
		t.Error("no stream left an aggregated entry: the map-bit comparison compared nothing")
	}
	t.Logf("%d aggregated LPAs with the live device's map bits, %d where a zone demotion had flattened the live ones", decided, flattened)
}
