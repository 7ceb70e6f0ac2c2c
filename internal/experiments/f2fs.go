package experiments

import (
	"fmt"
	"time"

	"github.com/conzone/conzone"
	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// f2fsLog is one of F2FS's six open logs: a temperature class appending to
// its own sequential zone. Node logs write small metadata blocks and fsync
// often; data logs write larger extents.
type f2fsLog struct {
	name       string
	writeBytes int64 // the log's write granularity
	fsyncEvery int   // an fsync (zone flush) after every N writes
	weight     int   // how often the log is picked, of the six weights' sum
}

var f2fsLogs = []f2fsLog{
	{"hot-node", 4 * units.KiB, 1, 6},
	{"warm-node", 8 * units.KiB, 2, 4},
	{"cold-node", 16 * units.KiB, 4, 1},
	{"hot-data", 48 * units.KiB, 2, 8},
	{"warm-data", 96 * units.KiB, 4, 5},
	{"cold-data", 384 * units.KiB, 8, 2},
}

// f2fsArm is what one buffer count cost the stream.
type f2fsArm struct {
	buffers     int
	metaUpdates int
	st          conzone.Stats
	now         time.Duration
}

// runF2FS drives the public conzone.Device with the write stream of F2FS on
// zoned storage, the consumer file system of paper §I and §II-B: zone 0 is
// conventional and takes F2FS's in-place metadata updates, and six logs
// (hot/warm/cold x node/data) append to zones 1-6 with frequent fsyncs, as
// consumer systems without power-loss protection issue them. The same
// seeded stream runs on 2, 3 and 6 write buffers. Six logs on two buffers
// evict each other's buffered data on every switch (the premature flushes
// of Fig. 6(b)) and push the evicted tails through SLC staging; the claim
// is that premature flushes and WAF both fall strictly as buffers are
// added, and that six buffers — one per log — flush nothing prematurely.
func runF2FS(cfg config.DeviceConfig, opt Options) (Report, error) {
	volume := 64 * units.MiB
	if opt.Reduced() {
		volume = 8 * units.MiB
	}
	rep := Report{
		Title: fmt.Sprintf("F2FS on zoned flash: %s over six open logs with fsyncs, per write-buffer count",
			units.FormatBytes(volume)),
		Pass: true,
	}
	t := Table{Header: []string{"buffers", "premature flushes", "SLC-staged sectors", "combines", "direct PUs", "WAF", "virtual time"}}
	var arms []f2fsArm
	for _, buffers := range []int{2, 3, 6} {
		arm, err := runF2FSArm(cfg, buffers, volume)
		if err != nil {
			return Report{}, err
		}
		arms = append(arms, arm)
		f := arm.st.FTL
		t.Add(arm.buffers, f.PrematureFlushes, f.StagedSectors, f.Combines, f.DirectPUs, f3(arm.st.WAF), arm.now)
	}
	t.Notes = []string{"", fmt.Sprintf("%d in-place metadata updates in conventional zone 0 per arm", arms[0].metaUpdates)}
	for i := 1; i < len(arms); i++ {
		a, b := arms[i-1], arms[i]
		if b.st.FTL.PrematureFlushes >= a.st.FTL.PrematureFlushes {
			rep.fail("premature flushes do not fall from %d to %d buffers (%d -> %d)",
				a.buffers, b.buffers, a.st.FTL.PrematureFlushes, b.st.FTL.PrematureFlushes)
		}
		if b.st.WAF >= a.st.WAF {
			rep.fail("WAF does not fall from %d to %d buffers (%.3f -> %.3f)", a.buffers, b.buffers, a.st.WAF, b.st.WAF)
		}
	}
	if last := arms[len(arms)-1]; last.st.FTL.PrematureFlushes != 0 {
		rep.fail("%d buffers still flush %d times prematurely (want 0: one buffer per log)", last.buffers, last.st.FTL.PrematureFlushes)
	}
	if rep.Pass {
		t.Notes = append(t.Notes, "premature flushes and WAF fall strictly with each added buffer; one buffer per log flushes nothing prematurely")
	}
	rep.Tables = []Table{t}
	return rep, nil
}

// runF2FSArm writes volume bytes of the seeded F2FS stream on a fresh device
// with the given number of write buffers.
func runF2FSArm(cfg config.DeviceConfig, buffers int, volume int64) (f2fsArm, error) {
	cfg.FTL.ConventionalZones = 1
	cfg.FTL.NumWriteBuffers = buffers
	dev, err := conzone.Open(cfg)
	if err != nil {
		return f2fsArm{}, err
	}
	zoneBytes := dev.ZoneBytes()
	totalWeight := 0
	for i, l := range f2fsLogs {
		if err := dev.OpenZone(i + 1); err != nil {
			return f2fsArm{}, err
		}
		totalWeight += l.weight
	}
	// The payload is zeros throughout: only the write pattern matters here.
	zeros := make([]byte, 384*units.KiB)
	offset := make([]int64, len(f2fsLogs)) // bytes written into each log's zone
	writes := make([]int, len(f2fsLogs))
	rng := sim.NewRand(2026)
	var appended int64
	metaUpdates := 0
	for appended < volume {
		// F2FS rewrites its NAT/SIT blocks in place, here one of 64
		// rotating 4 KiB slots, every 128 KiB of log data.
		if appended >= int64(metaUpdates)*128*units.KiB {
			slot := int64(metaUpdates%64) * units.Sector
			if err := dev.Write(slot, zeros[:units.Sector]); err != nil {
				return f2fsArm{}, fmt.Errorf("metadata update: %w", err)
			}
			if err := dev.FlushZone(0); err != nil {
				return f2fsArm{}, err
			}
			metaUpdates++
		}
		r := int(rng.Int63n(int64(totalWeight)))
		li := 0
		for r >= f2fsLogs[li].weight {
			r -= f2fsLogs[li].weight
			li++
		}
		l, zone := f2fsLogs[li], li+1
		if offset[li]+l.writeBytes > zoneBytes {
			continue // the log's segment is full; F2FS would move on
		}
		if err := dev.Write(int64(zone)*zoneBytes+offset[li], zeros[:l.writeBytes]); err != nil {
			return f2fsArm{}, fmt.Errorf("%s: %w", l.name, err)
		}
		offset[li] += l.writeBytes
		appended += l.writeBytes
		if writes[li]++; writes[li]%l.fsyncEvery == 0 {
			if err := dev.FlushZone(zone); err != nil {
				return f2fsArm{}, err
			}
		}
	}
	// The buffer count the device was built with, not the one asked for.
	n := dev.FTL().Params().NumWriteBuffers
	return f2fsArm{buffers: n, metaUpdates: metaUpdates, st: dev.Stats(), now: dev.Now()}, nil
}
