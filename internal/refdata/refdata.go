// Package refdata encodes what the ConZone paper reports for each table
// and figure — the capability matrix of Table I, the Table II latencies,
// and the relative claims of Figs. 6-8. The benchmark harness prints these
// expectations next to measured values, and the experiment tests assert
// that the measured *shape* (who wins, by roughly what factor) matches.
//
// Absolute bandwidths for ZMS (a real SM8350 phone, USENIX ATC'24) are not
// reproducible in a simulator, so every claim here is relative.
package refdata

import "time"

// Capability is one row of Table I.
type Capability struct {
	Feature  string
	FEMU     string
	ConfZNS  string
	NVMeVirt string
	ConZone  string
}

// Table1 returns the emulator capability matrix exactly as published.
func Table1() []Capability {
	return []Capability{
		{"Low-latency media", "No", "No", "Yes", "Yes"},
		{"Heterogeneous media", "No", "No", "No", "Yes"},
		{"# of write buffers", "Yes", "No", "No", "Yes"},
		{"L2P cache", "No", "No", "No", "Yes"},
		{"L2P mapping", "No", "Zone", "No", "Hybrid"},
	}
}

// MediaLatency is one cell pair of Table II.
type MediaLatency struct {
	Media   string
	Program time.Duration
	Read    time.Duration
}

// Table2 returns the published media latencies.
func Table2() []MediaLatency {
	return []MediaLatency{
		{"SLC", 75 * time.Microsecond, 20 * time.Microsecond},
		{"TLC", 937500 * time.Nanosecond, 32 * time.Microsecond},
		{"QLC", 6400 * time.Microsecond, 85 * time.Microsecond},
	}
}

// Claim is a relative expectation: Value is the paper-reported ratio (or
// percentage as a fraction), Tolerance the slack we accept from a
// simulator reproduction. A measured value holds the claim when it lies in
// [Value-Tolerance, Value+Tolerance]; internal/experiments checks it there.
type Claim struct {
	ID        string
	Statement string
	Value     float64
	Tolerance float64
}

// Fig6a returns the sequential-I/O claims of Fig. 6(a). Ratios are
// measured/reference as described per claim.
func Fig6a() []Claim {
	return []Claim{
		{
			ID:        "fig6a-write-vs-legacy",
			Statement: "ConZone write bandwidth comparable to Legacy (ratio ConZone/Legacy)",
			Value:     1.00, Tolerance: 0.15,
		},
		{
			ID:        "fig6a-read-st-vs-legacy",
			Statement: "ConZone ST read ~1% above Legacy (ratio ConZone/Legacy)",
			Value:     1.01, Tolerance: 0.08,
		},
		{
			ID:        "fig6a-read-mt-vs-legacy",
			Statement: "ConZone MT read ~10% above Legacy (ratio ConZone/Legacy)",
			Value:     1.10, Tolerance: 0.09,
		},
		{
			ID:        "fig6a-femu-write-high",
			Statement: "FEMU write slightly above ConZone (no channel model; ratio FEMU/ConZone)",
			Value:     1.05, Tolerance: 0.12,
		},
		{
			ID:        "fig6a-femu-read-st-low",
			Statement: "FEMU ST read well below ConZone (VM latency; ratio FEMU/ConZone)",
			Value:     0.60, Tolerance: 0.35,
		},
	}
}

// Fig6b returns the write-buffer-conflict claims of Fig. 6(b).
func Fig6b() []Claim {
	return []Claim{
		{
			ID:        "fig6b-bandwidth",
			Statement: "no-conflict write bandwidth ~65% above conflict (ratio noConflict/conflict)",
			Value:     1.65, Tolerance: 0.45,
		},
		{
			ID:        "fig6b-wa",
			Statement: "write amplification reduced ~24% without conflicts (1 - WAFnc/WAFc)",
			Value:     0.24, Tolerance: 0.12,
		},
	}
}

// Fig7 returns the mapping-mechanism claims: 4 KiB random reads at fixed
// volume over growing ranges.
func Fig7() []Claim {
	return []Claim{
		{
			ID:        "fig7-page-16mib",
			Statement: "page mapping KIOPS at 16MiB range, relative drop vs 1MiB",
			Value:     0.165, Tolerance: 0.12,
		},
		{
			ID:        "fig7-page-1gib",
			Statement: "page mapping KIOPS at 1GiB range, relative drop vs 1MiB",
			Value:     0.335, Tolerance: 0.15,
		},
		{
			ID:        "fig7-hybrid-flat",
			Statement: "hybrid mapping KIOPS flat across ranges (drop 1GiB vs 1MiB)",
			Value:     0.0, Tolerance: 0.05,
		},
	}
}

// Fig7HybridTail is the paper's absolute tail-latency observation for
// hybrid mapping ("remains around 50us"); the reproduction accepts a
// generous band because the substrate differs.
var Fig7HybridTail = struct {
	Target    time.Duration
	Tolerance time.Duration
}{50 * time.Microsecond, 35 * time.Microsecond}

// Fig8 returns the L2P search strategy claims at ~27.4% miss rate.
func Fig8() []Claim {
	return []Claim{
		{
			ID:        "fig8-multiple-kiops",
			Statement: "MULTIPLE KIOPS ~10% below BITMAP at ~27% miss (1 - MULTIPLE/BITMAP)",
			Value:     0.10, Tolerance: 0.08,
		},
		{
			ID:        "fig8-pinned-close",
			Statement: "PINNED recovers at least BITMAP-level KIOPS (ratio PINNED/BITMAP)",
			Value:     1.08, Tolerance: 0.12,
		},
	}
}

// Fig8TargetMissRate is the miss rate the paper evaluates Fig. 8 at.
const Fig8TargetMissRate = 0.274
