package conzone

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// burstTrace captures everything observable about one workload run: the
// completion stream in poll order (every field, including read payload
// bytes), a full media read-back, the FTL and NAND counter snapshots, and
// the telemetry recorder's fingerprint. Two runs are bit-identical exactly
// when their burstTraces match.
type burstTrace struct {
	completions [32]byte // sha256 over the ordered completion stream
	media       [32]byte // sha256 over a full device read-back
	stats       ftl.Stats
	counters    nand.Counters
	telemetry   [32]byte // obs.Recorder fingerprint
	polled      int
}

// burstWorkload drives a seeded mix through the host controller's read
// path in every shape it takes: long back-to-back read bursts with no poll
// in between, multi-sector reads spanning page runs, reads served from the
// write buffer and the L2P cache, reads of unwritten sectors, and the
// write-class traffic (writes, flushes, resets) between bursts.
func burstWorkload(t *testing.T, gmp int) burstTrace {
	t.Helper()
	prev := runtime.GOMAXPROCS(gmp)
	defer runtime.GOMAXPROCS(prev)

	cfg := config.Small()
	f, err := ftl.New(cfg.Geometry, cfg.Latency, cfg.FTL)
	if err != nil {
		t.Fatalf("build FTL: %v", err)
	}
	f.SetRecorder(obs.NewRecorder(4096))
	ctrl, err := host.New(f, host.Config{Queues: 1, Depth: 96})
	if err != nil {
		t.Fatalf("build controller: %v", err)
	}

	var tr burstTrace
	h := sha256.New()
	var word [8]byte
	hashInt := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	hashCompletion := func(c *host.Completion) {
		tr.polled++
		hashInt(int64(c.Tag))
		hashInt(int64(c.Queue))
		hashInt(int64(c.Op))
		hashInt(int64(c.Zone))
		hashInt(c.LBA)
		hashInt(c.N)
		hashInt(int64(c.Submitted))
		hashInt(int64(c.Dispatched))
		hashInt(int64(c.Done))
		hashInt(int64(c.Status))
		if c.Err != nil {
			h.Write([]byte(c.Err.Error()))
		}
		for _, sec := range c.Data {
			if sec == nil {
				h.Write([]byte{0xEE}) // unwritten marker
				continue
			}
			h.Write(sec)
		}
	}

	var now sim.Time
	inflight := 0
	drainAll := func() {
		for inflight > 0 {
			comps := ctrl.PollInto(0, inflight, nil)
			if len(comps) == 0 {
				t.Fatalf("no completion with %d in flight", inflight)
			}
			for i := range comps {
				c := &comps[i]
				if c.Err != nil {
					t.Fatalf("%v lba %d: %v", c.Op, c.LBA, c.Err)
				}
				if c.Done > now {
					now = c.Done
				}
				hashCompletion(c)
				inflight--
			}
		}
	}
	submit := func(req host.Request) {
		if _, err := ctrl.Submit(now, 0, req); err != nil {
			t.Fatalf("submit %v lba %d: %v", req.Op, req.LBA, err)
		}
		inflight++
		now = now.Add(sim.Duration(1000))
	}

	zoneCap := f.ZoneCapSectors()
	sbCap := f.Geometry().SuperblockBytes() / units.Sector
	numZones := f.NumZones()
	rng := rand.New(rand.NewSource(0xD15C))
	payload := func(lba int64) [][]byte {
		s := make([]byte, units.Sector)
		binary.LittleEndian.PutUint64(s, uint64(lba)^0xA5A5A5A5)
		s[len(s)-1] = byte(lba >> 3)
		return [][]byte{s}
	}

	// Phase 1: seed three zones with data — partially, so reads will mix
	// mapped sectors, write-buffered sectors and unwritten tails.
	written := make([]int64, numZones)
	for z := 0; z < 3 && z < numZones; z++ {
		n := sbCap/2 + int64(z)*7
		for off := int64(0); off < n; off++ {
			if inflight >= 64 {
				drainAll()
			}
			lba := int64(z)*zoneCap + off
			submit(host.Request{Op: host.OpWrite, LBA: lba, Payloads: payload(lba)})
		}
		written[z] = n
		drainAll()
	}
	submit(host.Request{Op: host.OpFlush, Zone: -1})
	drainAll()

	// Phase 2: alternating read bursts and write-class traffic. Each burst
	// submits 48 reads back to back, with no polls in between.
	for round := 0; round < 6; round++ {
		for i := 0; i < 48; i++ {
			z := rng.Intn(3)
			span := written[z] + 16 // overhang into unwritten space sometimes
			lba := int64(z)*zoneCap + rng.Int63n(span)
			n := int64(1)
			if i%5 == 0 {
				n = 4 + rng.Int63n(5) // multi-sector: page-run batching
				if rem := int64(z+1)*zoneCap - lba; n > rem {
					n = rem
				}
			}
			submit(host.Request{Op: host.OpRead, LBA: lba, N: n})
		}
		drainAll()

		// Write-class traffic between bursts; leave some of it buffered so
		// the next burst hits the write buffer.
		z := rng.Intn(3)
		if written[z] >= sbCap-8 {
			submit(host.Request{Op: host.OpReset, Zone: z})
			written[z] = 0
		}
		for k := 0; k < 3; k++ {
			lba := int64(z)*zoneCap + written[z]
			submit(host.Request{Op: host.OpWrite, LBA: lba, Payloads: payload(lba)})
			written[z]++
		}
		if round%2 == 1 {
			submit(host.Request{Op: host.OpFlush, Zone: z})
		}
		drainAll()
	}

	// Phase 3: one final un-polled burst followed directly by a flush-all,
	// then a full drain.
	for i := 0; i < 40; i++ {
		z := rng.Intn(3)
		lba := int64(z)*zoneCap + rng.Int63n(written[z]+1)
		submit(host.Request{Op: host.OpRead, LBA: lba, N: 1})
	}
	submit(host.Request{Op: host.OpFlush, Zone: -1})
	drainAll()
	h.Sum(tr.completions[:0])

	// Full media read-back, zone by zone, one read in flight at a time.
	h.Reset()
	for z := 0; z < 3 && z < numZones; z++ {
		for off := int64(0); off < sbCap; off += 8 {
			n := int64(8)
			if sbCap-off < n {
				n = sbCap - off
			}
			submit(host.Request{Op: host.OpRead, LBA: int64(z)*zoneCap + off, N: n})
			for inflight > 0 {
				comps := ctrl.PollInto(0, inflight, nil)
				for i := range comps {
					c := &comps[i]
					if c.Err != nil {
						t.Fatalf("read-back lba %d: %v", c.LBA, c.Err)
					}
					for _, sec := range c.Data {
						if sec == nil {
							h.Write([]byte{0xEE})
							continue
						}
						h.Write(sec)
					}
					inflight--
				}
			}
		}
	}
	h.Sum(tr.media[:0])

	tr.stats = f.Stats()
	tr.counters = f.Array().Counters()
	tr.telemetry = f.Recorder().Fingerprint()
	return tr
}

// diffTrace reports every component of got that differs from want.
func diffTrace(t *testing.T, got, want burstTrace) {
	t.Helper()
	if got.polled != want.polled || got.completions != want.completions {
		t.Errorf("completion stream diverged (%d vs %d completions)", got.polled, want.polled)
	}
	if got.media != want.media {
		t.Error("media read-back diverged")
	}
	if got.stats != want.stats {
		t.Errorf("FTL stats diverged:\n got %+v\nwant %+v", got.stats, want.stats)
	}
	if got.counters != want.counters {
		t.Errorf("NAND counters diverged:\n got %+v\nwant %+v", got.counters, want.counters)
	}
	if got.telemetry != want.telemetry {
		t.Error("telemetry fingerprint diverged")
	}
}

// recordedBurstTrace is burstWorkload's output at commit aa15408 (PR 12),
// where both read paths that commit had produced it at GOMAXPROCS 1 and
// NumCPU. It moves only with a change that means to move virtual time, the
// completion format or the counters; re-record it in that change.
func recordedBurstTrace(t *testing.T) burstTrace {
	sum := func(s string) (d [32]byte) {
		if _, err := hex.Decode(d[:], []byte(s)); err != nil {
			t.Fatal(err)
		}
		return d
	}
	return burstTrace{
		polled:      948,
		completions: sum("c7d43c8ab453666edcefb00edd76b5d64256ce56f44de2cbbc7063f7b58bfd1a"),
		media:       sum("9154b329e451ec02a7d36c5c88819e8c520c5415148013ab26422fe24d7737c6"),
		telemetry:   sum("38f29d7c328738aacc65f442a2935eb42b71ac95ba197bc9c562fe6a8c3cadbd"),
		stats: ftl.Stats{
			HostReadBytes: 7352320, HostWrittenBytes: 2519040, DirectPUs: 24, StagedSectors: 39,
			PrematureFlushes: 1, MapFetches: 819, MapFetchReads: 819,
		},
		counters: nand.Counters{
			PageReads: 1358, PUPrograms: 24, PartialPrograms: 19, PageProgramsSLC: 5,
			BytesRead: 8310784, BytesProgrammed: 2519040,
		},
	}
}

// TestReadBurstDeterminism pins determinism of the one read path end to
// end: the same seed twice and GOMAXPROCS 1 vs NumCPU give identical
// traces, the trace is the one recorded before the second read path was
// deleted, and a burst of reads completes exactly as the same reads polled
// one at a time.
func TestReadBurstDeterminism(t *testing.T) {
	base := burstWorkload(t, 1)
	if base.polled == 0 {
		t.Fatal("baseline run polled no completions")
	}
	t.Run("same seed again", func(t *testing.T) { diffTrace(t, burstWorkload(t, 1), base) })
	t.Run("gomaxprocs=numcpu", func(t *testing.T) { diffTrace(t, burstWorkload(t, runtime.NumCPU()), base) })
	t.Run("recorded trace", func(t *testing.T) { diffTrace(t, base, recordedBurstTrace(t)) })
	t.Run("burst equals polled", func(t *testing.T) {
		burst, polled := submitReads(t, false), submitReads(t, true)
		if len(burst) == 0 || len(burst) != len(polled) {
			t.Fatalf("%d burst completions, %d polled", len(burst), len(polled))
		}
		carried := 0
		for tag, b := range burst {
			p, ok := polled[tag]
			if !ok {
				t.Fatalf("tag %d completed in the burst run only", tag)
			}
			if b.Done != p.Done || b.Status != p.Status || len(b.Data) != len(p.Data) {
				t.Fatalf("tag %d (lba %d n %d): burst done %d status %v %d sectors, polled done %d status %v %d sectors",
					tag, b.LBA, b.N, b.Done, b.Status, len(b.Data), p.Done, p.Status, len(p.Data))
			}
			for i := range b.Data {
				if !bytes.Equal(b.Data[i], p.Data[i]) {
					t.Fatalf("tag %d (lba %d): sector %d differs between burst and polled", tag, b.LBA, i)
				}
				carried++
			}
		}
		if carried == 0 {
			t.Fatal("no read carried data: the comparison proved nothing")
		}
	})
}

// submitReads opens a device, writes one flushed and one still-buffered
// region, then submits a fixed list of 64 reads with SubmitAt at fixed
// instants — back to back and reaped at the end, or with a Poll after each
// when pollEach is set — and returns the completions by tag.
func submitReads(t *testing.T, pollEach bool) map[Tag]HostCompletion {
	t.Helper()
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ConfigureQueues(1, 96); err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, 96*SectorSize)
	for i := range fill {
		fill[i] = byte(i*7 + i/int(SectorSize))
	}
	if err := dev.Write(0, fill); err != nil {
		t.Fatal(err)
	}
	if err := dev.FlushZone(0); err != nil {
		t.Fatal(err)
	}
	if err := dev.Write(dev.ZoneBytes(), fill[:5*SectorSize]); err != nil { // stays in the write buffer
		t.Fatal(err)
	}

	zoneCap := dev.ZoneBytes() / SectorSize
	rng := rand.New(rand.NewSource(0xB0057))
	at := Time(dev.Now())
	got := make(map[Tag]HostCompletion)
	reap := func() {
		for _, c := range dev.Poll(0, 0) {
			got[c.Tag] = c
		}
	}
	for i := 0; i < 64; i++ {
		req := HostRequest{Op: OpRead, LBA: rng.Int63n(104), N: 1} // overhangs the written 96 sectors
		switch i % 4 {
		case 1:
			req.N = 2 + rng.Int63n(7) // multi-sector: page-run batching
		case 2:
			req.LBA = zoneCap + rng.Int63n(8) // write buffer, then unwritten
		}
		if i%3 != 0 {
			at = at.Add(700) // two of three reads get a fresh instant, the third shares one
		}
		if _, err := dev.SubmitAt(at, 0, req); err != nil {
			t.Fatal(err)
		}
		if pollEach {
			reap()
		}
	}
	reap()
	return got
}
