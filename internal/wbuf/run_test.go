package wbuf

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/conzone/conzone/internal/units"
)

// drained is what the caller sees of one flush: which zone, where the run
// starts, why it drained and which payload buffers it carries, by identity.
type drained struct {
	zone    int
	start   int64
	reason  Reason
	payload []*byte // &p[0], nil for a nil entry
}

func record(out []drained, fs ...*Flush) []drained {
	for _, f := range fs {
		if f == nil {
			continue
		}
		d := drained{zone: f.Zone, start: f.StartLBA, reason: f.Reason}
		for _, p := range f.Payloads {
			var id *byte
			if p != nil {
				id = &p[0]
			}
			d.payload = append(d.payload, id)
		}
		out = append(out, d)
	}
	return out
}

// TestAppendRunMatchesSectorAppends appends seeded runs of 1 to 3×capacity
// sectors over four zones sharing two buffers, with evictions, explicit
// drains and restores that leave a buffer above capacity, and the same
// sectors one at a time to a second manager. Both must drain the same runs —
// zone, start, reason and payload identity — in the same order, and count
// the same events.
func TestAppendRunMatchesSectorAppends(t *testing.T) {
	const capSectors, zones = 8, 4
	runs, _ := New(2, capSectors)
	singles, _ := New(2, capSectors)
	pool := make([][]byte, 61) // distinct buffers; a sector's payload is chosen by its LBA
	for i := range pool {
		pool[i] = make([]byte, units.Sector)
	}
	payloads := func(lba, n int64) [][]byte {
		ps := make([][]byte, n)
		for i := range ps {
			if l := lba + int64(i); l%5 != 0 {
				ps[i] = pool[l%int64(len(pool))]
			}
		}
		return ps
	}
	var next [zones]int64
	for z := range next {
		next[z] = int64(z) << 20
	}
	rng := rand.New(rand.NewSource(7))
	var gotRuns, gotSingles []drained
	overCap := 0 // appends into a buffer a restore left at or over capacity
	for step := 0; step < 3000; step++ {
		z := rng.Intn(zones)
		gotRuns = record(gotRuns, runs.Evict(z))
		gotSingles = record(gotSingles, singles.Evict(z))
		switch op := rng.Intn(10); {
		case op < 7:
			n := 1 + rng.Int63n(3*capSectors)
			ps := payloads(next[z], n)
			if _, buffered := runs.Buffered(z); buffered >= capSectors {
				overCap++
			}
			fs, err := runs.Append(z, next[z], ps)
			if err != nil {
				t.Fatal(err)
			}
			gotRuns = record(gotRuns, fs...)
			for i := range ps {
				fs, err := singles.Append(z, next[z]+int64(i), ps[i:i+1])
				if err != nil {
					t.Fatal(err)
				}
				gotSingles = record(gotSingles, fs...)
			}
			next[z] += n
		case op < 8:
			gotRuns = record(gotRuns, runs.Take(z))
			gotSingles = record(gotSingles, singles.Take(z))
		default: // a failed flush's run returns: it may leave the buffer over capacity
			n := 1 + rng.Int63n(2*capSectors)
			ps := payloads(next[z], n)
			if err := runs.Restore(z, next[z], ps); err != nil {
				t.Fatal(err)
			}
			if err := singles.Restore(z, next[z], ps); err != nil {
				t.Fatal(err)
			}
			next[z] += n
		}
		if runs.Stats() != singles.Stats() {
			t.Fatalf("step %d: stats %+v, sector appends give %+v", step, runs.Stats(), singles.Stats())
		}
		if !slices.Equal(runs.Runs(), singles.Runs()) {
			t.Fatalf("step %d: buffered %v, sector appends give %v", step, runs.Runs(), singles.Runs())
		}
	}
	if len(gotRuns) != len(gotSingles) {
		t.Fatalf("%d flushes, sector appends give %d", len(gotRuns), len(gotSingles))
	}
	for i := range gotRuns {
		a, b := gotRuns[i], gotSingles[i]
		if a.zone != b.zone || a.start != b.start || a.reason != b.reason || !slices.Equal(a.payload, b.payload) {
			t.Fatalf("flush %d: zone %d at %d (%v, %d sectors), sector appends give zone %d at %d (%v, %d sectors)",
				i, a.zone, a.start, a.reason, len(a.payload), b.zone, b.start, b.reason, len(b.payload))
		}
	}
	if overCap == 0 || runs.Stats().FullDrain == 0 {
		t.Fatalf("appends into an over-capacity buffer %d, full drains %d: want both", overCap, runs.Stats().FullDrain)
	}
}

// BenchmarkAppend is the write buffer's share of a host write: 32-sector
// (128 KiB) appends to one zone of a config.Paper()-sized manager — two
// buffers of one 96-sector superpage — so every third append drains a full
// buffer, whose flush the next call reclaims.
func BenchmarkAppend(b *testing.B) {
	const capSectors, run = 96, 32
	m, err := New(2, capSectors)
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([][]byte, run)
	var lba int64
	step := func() {
		if _, err := m.Append(0, lba, payloads); err != nil {
			b.Fatal(err)
		}
		lba += run
	}
	for range 2 * capSectors / run {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*run), "ns/sector")
}
