package refdata

import (
	"testing"
	"time"
)

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("Table I rows = %d", len(rows))
	}
	// Every ConZone cell must be a positive capability.
	for _, r := range rows {
		if r.ConZone == "No" {
			t.Errorf("ConZone lacks %q in its own table", r.Feature)
		}
	}
	if rows[4].ConZone != "Hybrid" || rows[4].ConfZNS != "Zone" {
		t.Error("mapping row wrong")
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Program != 75*time.Microsecond || rows[0].Read != 20*time.Microsecond {
		t.Error("SLC row wrong")
	}
	if rows[1].Program != 937500*time.Nanosecond {
		t.Error("TLC program must be 937.5us")
	}
	if rows[2].Read != 85*time.Microsecond {
		t.Error("QLC read wrong")
	}
}

func TestClaimSetsNonEmpty(t *testing.T) {
	for name, claims := range map[string][]Claim{
		"fig6a": Fig6a(), "fig6b": Fig6b(), "fig7": Fig7(), "fig8": Fig8(),
	} {
		if len(claims) == 0 {
			t.Errorf("%s empty", name)
		}
		for _, c := range claims {
			if c.ID == "" || c.Statement == "" || c.Tolerance <= 0 {
				t.Errorf("%s has malformed claim %+v", name, c)
			}
		}
	}
}

func TestFig8Constants(t *testing.T) {
	if Fig8TargetMissRate < 0.2 || Fig8TargetMissRate > 0.35 {
		t.Error("target miss rate should be ~27.4%")
	}
	if Fig7HybridTail.Target != 50*time.Microsecond {
		t.Error("hybrid tail target wrong")
	}
}
