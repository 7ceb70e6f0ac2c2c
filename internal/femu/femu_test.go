package femu

import (
	"bytes"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// read is ReadInto into a fresh container, for tests that keep what they
// read.
func read(d *Device, at sim.Time, lba, n int64) ([][]byte, sim.Time, error) {
	out := make([][]byte, max(n, 0))
	done, err := d.ReadInto(at, lba, n, out)
	return out, done, err
}

func testGeo() nand.Geometry {
	return nand.Geometry{
		Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 16,
		PagesPerBlock: 24, SLCPagesPerBlock: 8, PageSize: 16 * units.KiB,
		SLCBlocks: 4, MapBlocks: 2, NormalMedia: nand.TLC,
		ProgramUnit: 96 * units.KiB, SLCProgramUnit: 4 * units.KiB,
		ChannelMiBps: 3200, // New overrides this to unthrottled
	}
}

func testParams() Params {
	return Params{VMExitMin: 20 * time.Microsecond, VMExitMax: 60 * time.Microsecond, Seed: 1}
}

// personalities is the table shared assertions run over.
var personalities = []Personality{Stock, ConfZNS}

func newTestDevice(t *testing.T, pers Personality) *Device {
	t.Helper()
	d, err := New(pers, testGeo(), nand.DefaultLatencies(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func payloadFor(lba int64) []byte {
	p := make([]byte, units.Sector)
	for i := range p {
		p[i] = byte((lba*3 + int64(i)) % 253)
	}
	return p
}

func payloadsFor(lba, n int64) [][]byte {
	out := make([][]byte, n)
	for i := int64(0); i < n; i++ {
		out[i] = payloadFor(lba + i)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	for _, pers := range personalities {
		t.Run(pers.String(), func(t *testing.T) {
			p := testParams()
			p.VMExitMax = p.VMExitMin - 1
			if _, err := New(pers, testGeo(), nand.DefaultLatencies(), p); err == nil {
				t.Error("inverted jitter range accepted")
			}
			p = testParams()
			p.VMExitMin = -1
			if _, err := New(pers, testGeo(), nand.DefaultLatencies(), p); err == nil {
				t.Error("negative jitter accepted")
			}
		})
	}
	if _, err := New(ConfZNS+1, testGeo(), nand.DefaultLatencies(), testParams()); err == nil {
		t.Error("personality outside {Stock, ConfZNS} accepted")
	}
}

func TestDimensions(t *testing.T) {
	for _, pers := range personalities {
		t.Run(pers.String(), func(t *testing.T) {
			d := newTestDevice(t, pers)
			if d.NumZones() != 10 || d.ZoneCapSectors() != 384 {
				t.Errorf("zones = %d x %d", d.NumZones(), d.ZoneCapSectors())
			}
			if d.TotalSectors() != 3840 {
				t.Errorf("TotalSectors = %d", d.TotalSectors())
			}
			// The channel model must be disabled regardless of input
			// geometry (FEMU lineage).
			if d.Array().Geometry().ChannelMiBps != 0 {
				t.Error("channel bandwidth not overridden")
			}
		})
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, pers := range personalities {
		t.Run(pers.String(), func(t *testing.T) {
			d := newTestDevice(t, pers)
			if _, err := d.Write(0, 0, payloadsFor(0, 96)); err != nil {
				t.Fatal(err)
			}
			out, _, err := read(d, 0, 0, 96)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 96; i++ {
				if !bytes.Equal(out[i], payloadFor(i)) {
					t.Fatalf("mismatch at %d", i)
				}
			}
			if d.Stats().Programs != 4 {
				t.Errorf("Programs = %d", d.Stats().Programs)
			}
		})
	}
}

func TestVMExitLatencyAdded(t *testing.T) {
	d := newTestDevice(t, Stock)
	if _, err := d.Write(0, 0, payloadsFor(0, 24)); err != nil {
		t.Fatal(err)
	}
	start := sim.Time(time.Second)
	_, done, err := read(d, start, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	lat := done.Sub(start)
	// TLC sense 32us + no transfer time + jitter [20,60]us.
	if lat < 52*time.Microsecond || lat > 92*time.Microsecond {
		t.Errorf("read latency = %v, want 32us + [20,60]us jitter", lat)
	}
}

func TestPartialDataStaysBuffered(t *testing.T) {
	d := newTestDevice(t, Stock)
	if _, err := d.Write(0, 0, payloadsFor(0, 10)); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Programs != 0 {
		t.Error("partial unit programmed")
	}
	// Data readable from the buffer.
	out, _, err := read(d, 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if !bytes.Equal(out[i], payloadFor(i)) {
			t.Fatalf("buffered read mismatch at %d", i)
		}
	}
	if _, err := d.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	if d.Stats().UnflushableTails != 1 {
		t.Errorf("UnflushableTails = %d", d.Stats().UnflushableTails)
	}
}

func TestSequentialWriteValidation(t *testing.T) {
	for _, pers := range personalities {
		t.Run(pers.String(), func(t *testing.T) {
			d := newTestDevice(t, pers)
			if _, err := d.Write(0, 5, payloadsFor(5, 1)); err == nil {
				t.Error("write off WP accepted")
			}
		})
	}
}

func TestResetZone(t *testing.T) {
	for _, pers := range personalities {
		t.Run(pers.String(), func(t *testing.T) {
			d := newTestDevice(t, pers)
			if _, err := d.Write(0, 0, payloadsFor(0, 96)); err != nil {
				t.Fatal(err)
			}
			done, err := d.ResetZone(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := read(d, done, 0, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range out {
				if p != nil {
					t.Error("data survived reset")
				}
			}
			if _, err := d.Write(done, 0, payloadsFor(0, 24)); err != nil {
				t.Errorf("write after reset: %v", err)
			}
		})
	}
}

func TestWriteUnthrottledFasterThanConZoneWouldBe(t *testing.T) {
	d := newTestDevice(t, Stock)
	// A full superpage takes ~tPROG with no transfer cost; the engine's
	// observed time after 4 parallel PU programs should be close to one
	// tPROG (937.5us), well under tPROG + transfer.
	if _, err := d.Write(0, 0, payloadsFor(0, 96)); err != nil {
		t.Fatal(err)
	}
	now := d.Array().Engine().Now()
	if now > sim.Time(1100*time.Microsecond) {
		t.Errorf("unthrottled write too slow: %v", now)
	}
}

func TestDeterministicJitter(t *testing.T) {
	d1 := newTestDevice(t, Stock)
	d2 := newTestDevice(t, Stock)
	_, _ = d1.Write(0, 0, payloadsFor(0, 24))
	_, _ = d2.Write(0, 0, payloadsFor(0, 24))
	_, t1, _ := read(d1, 0, 0, 1)
	_, t2, _ := read(d2, 0, 0, 1)
	if t1 != t2 {
		t.Error("same seed must give identical timing")
	}
}

// BenchmarkWrite is the zone write path in steady state: 128 KiB
// sequential writes carrying payloads fill a zone, which is reset and
// filled again, so the zone's buffer and the media's chunks and slabs are
// reused lap after lap.
// One op is one write; it allocates nothing.
func BenchmarkWrite(b *testing.B) {
	for _, pers := range personalities {
		b.Run(pers.String(), func(b *testing.B) {
			d, err := New(pers, testGeo(), nand.DefaultLatencies(), testParams())
			if err != nil {
				b.Fatal(err)
			}
			const n = 32
			payloads := payloadsFor(0, n)
			zoneCap := d.ZoneCapSectors()
			var at sim.Time
			var off int64
			write := func() {
				if off == zoneCap {
					if at, err = d.ResetZone(at, 0); err != nil {
						b.Fatal(err)
					}
					off = 0
				}
				if at, err = d.Write(at, off, payloads); err != nil {
					b.Fatal(err)
				}
				off += n
			}
			for i := int64(0); i < 2*zoneCap/n; i++ { // two laps: every freelist is primed
				write()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write()
			}
		})
	}
}

// BenchmarkReadInto is the read path in steady state: 32-sector reads
// cycling over a written zone, half of whose last unit is still in the
// zone buffer, into one caller-owned slice. It allocates nothing.
func BenchmarkReadInto(b *testing.B) {
	for _, pers := range personalities {
		b.Run(pers.String(), func(b *testing.B) {
			d, err := New(pers, testGeo(), nand.DefaultLatencies(), testParams())
			if err != nil {
				b.Fatal(err)
			}
			const n = 32
			written := d.ZoneCapSectors() - 12
			at, err := d.Write(0, 0, payloadsFor(0, written))
			if err != nil {
				b.Fatal(err)
			}
			out := make([][]byte, n)
			var lba int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if at, err = d.ReadInto(at, lba, n, out); err != nil {
					b.Fatal(err)
				}
				if lba += n; lba+n > written {
					lba = 0
				}
			}
		})
	}
}
