package experiments

import (
	"fmt"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/sim"
)

// runZoneLife characterizes zone-management cost: the finish-latency-vs-
// fullness curve (an emptier zone pads more capacity, so finishing it takes
// longer) and read interference from a concurrent zone reset on shared
// chips. Two claims: the curve decreases strictly with fullness, so an empty
// zone is the worst case, and the reset does not make the concurrent read
// faster.
func runZoneLife(cfg config.DeviceConfig, opt Options) (Report, error) {
	fills := []float64{0, 0.25, 0.5, 0.75, 0.9}
	if opt.Reduced() {
		fills = []float64{0, 0.5, 0.9}
	}
	rep := Report{Title: "Zone lifecycle: finish latency vs zone fullness", Pass: true}

	// fill writes n sectors at the start of the zone and flushes them,
	// returning when the media is quiet: buffer evictions the write already
	// triggered may still occupy chips past the flush ack, and what follows
	// must show its own cost, not queueing behind the fill traffic. Nil
	// payload views write as zeros; only the write pointer and the media
	// charge matter here.
	fill := func(f *ftl.FTL, at sim.Time, zone int, n int64) (sim.Time, error) {
		if n == 0 {
			return at, nil
		}
		done, err := f.Write(at, int64(zone)*f.ZoneCapSectors(), make([][]byte, n))
		if err != nil {
			return 0, err
		}
		if done, err = f.Flush(done, zone); err != nil {
			return 0, err
		}
		return sim.Max(done, f.Array().Engine().Now()), nil
	}

	curve := Table{Header: []string{"fill", "written", "pad sectors", "finish latency"}}
	lats := make([]sim.Time, len(fills))
	for i, frac := range fills {
		f, err := cfg.NewConZone()
		if err != nil {
			return Report{}, err
		}
		n := int64(frac * float64(f.ZoneCapSectors()))
		at, err := fill(f, 0, 0, n)
		if err != nil {
			return Report{}, err
		}
		done, err := f.FinishZone(at, 0)
		if err != nil {
			return Report{}, err
		}
		lats[i] = done - at
		curve.Add(fmt.Sprintf("%3.0f%%", frac*100), n, f.Stats().PadSectors, fmtDur(lats[i]))
	}
	for i := 1; i < len(lats); i++ {
		if lats[i] >= lats[i-1] {
			rep.fail("finish latency not strictly decreasing with fullness (%d%% -> %v, %d%% -> %v)",
				int(fills[i-1]*100), lats[i-1], int(fills[i]*100), lats[i])
		}
	}
	if rep.Pass {
		curve.Notes = []string{"", "finish latency decreases monotonically with fullness; empty is the worst case"}
	}

	// readAfter fills zones 0 and 1, optionally starts a reset of zone 1, and
	// times a read of zone 0 issued at the same instant.
	const readSectors = 256
	views := make([][]byte, readSectors)
	readAfter := func(reset bool) (sim.Time, error) {
		f, err := cfg.NewConZone()
		if err != nil {
			return 0, err
		}
		var at sim.Time
		for _, zone := range []int{0, 1} {
			if at, err = fill(f, at, zone, readSectors); err != nil {
				return 0, err
			}
		}
		if reset {
			if _, err := f.ResetZone(at, 1); err != nil {
				return 0, err
			}
		}
		done, err := f.ReadInto(at, 0, readSectors, views)
		return done - at, err
	}
	idle, err := readAfter(false)
	if err != nil {
		return Report{}, err
	}
	busy, err := readAfter(true)
	if err != nil {
		return Report{}, err
	}

	// One experiment, two headed sections: the second heading is written in
	// the form a Report's Title prints in.
	reset := Table{
		Caption: "=== Zone lifecycle: read interference from a concurrent reset ===",
		Header:  []string{"scenario", "read latency (256 sectors)"},
		Rows: [][]string{
			{"idle device", fmtDur(idle)},
			{"zone reset in flight", fmtDur(busy)},
		},
	}
	if busy < idle {
		rep.fail("read got faster under a concurrent reset (%v < %v)", busy, idle)
	} else {
		reset.Notes = []string{"", fmt.Sprintf("reset interference: %.2fx the idle read latency (shared chips serialize erase and read)",
			float64(busy)/float64(idle))}
	}
	rep.Tables = []Table{curve, reset}
	return rep, nil
}

// fmtDur renders virtual nanoseconds human-readably.
func fmtDur(t sim.Time) string {
	switch {
	case t >= 1e6:
		return fmt.Sprintf("%.3f ms", float64(t)/1e6)
	case t >= 1e3:
		return fmt.Sprintf("%.3f us", float64(t)/1e3)
	}
	return fmt.Sprintf("%d ns", int64(t))
}
