package conzone

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/nand"
)

// readFixture opens a Small device holding every state a read can meet and
// returns it with the sectors each zone holds:
//
//	zone 0  full: head in the bound superblock, alignment tail in SLC
//	zone 1  a direct program unit plus a flushed partial unit staged in SLC
//	zone 2  a tail still in the volatile write buffer
//	zone 3  written, flushed, then reset
//	zone 4+ never written
//
// Written bytes follow pattern(off, n), so the expected image is computable.
func readFixture(t *testing.T) (*Device, []int64) {
	t.Helper()
	dev := openSmall(t)
	zb := dev.ZoneBytes()
	write := func(zone int, sectors int64) {
		t.Helper()
		for off := int64(0); off < sectors*SectorSize; off += 64 * SectorSize {
			n := min(64*SectorSize, sectors*SectorSize-off)
			if err := dev.Write(int64(zone)*zb+off, pattern(int64(zone)*zb+off, int(n))); err != nil {
				t.Fatalf("fill zone %d: %v", zone, err)
			}
		}
	}
	write(0, zb/SectorSize)
	write(1, 96+10)
	if err := dev.FlushZone(1); err != nil {
		t.Fatal(err)
	}
	write(3, 40)
	if err := dev.FlushZone(3); err != nil {
		t.Fatal(err)
	}
	if err := dev.ResetZone(3); err != nil {
		t.Fatal(err)
	}
	write(2, 30) // last, so nothing evicts it from its write buffer
	st := dev.Stats()
	if st.FTL.TailSectors == 0 || st.FTL.StagedSectors == 0 || st.Occupancy.BufferedSectors == 0 {
		t.Fatalf("fixture misses a state: %d tail sectors, %d staged, %d buffered",
			st.FTL.TailSectors, st.FTL.StagedSectors, st.Occupancy.BufferedSectors)
	}
	written := make([]int64, dev.NumZones())
	written[0], written[1], written[2] = zb/SectorSize, 96+10, 30
	return dev, written
}

// readForm is one way of asking the device for n sectors at lba: it returns
// the bytes and, per sector, whether the device reported it unwritten (nil
// when the form cannot tell).
type readForm func(t *testing.T, dev *Device, lba, n int64) (data []byte, unwritten []bool)

func viaRead(t *testing.T, dev *Device, lba, n int64) ([]byte, []bool) {
	data, err := dev.Read(lba*SectorSize, int(n*SectorSize))
	if err != nil {
		t.Fatalf("Read lba %d x%d: %v", lba, n, err)
	}
	return data, nil
}

func viaReadInto(t *testing.T, dev *Device, lba, n int64) ([]byte, []bool) {
	dst := bytes.Repeat([]byte{0xD1}, int(n*SectorSize)) // dirty: zeros must be written, not assumed
	if err := dev.ReadInto(lba*SectorSize, dst); err != nil {
		t.Fatalf("ReadInto lba %d x%d: %v", lba, n, err)
	}
	return dst, nil
}

// viaCompletion is the asynchronous per-sector form: the one that tells an
// unwritten sector (nil) from a sector of zeros.
func viaCompletion(t *testing.T, dev *Device, lba, n int64) ([]byte, []bool) {
	tag, err := dev.Submit(0, HostRequest{Op: OpRead, LBA: lba, N: n})
	if err != nil {
		t.Fatalf("Submit read lba %d x%d: %v", lba, n, err)
	}
	comp, ok := dev.Wait(tag)
	if !ok || comp.Err != nil {
		t.Fatalf("Wait read lba %d x%d: reaped %v, %v", lba, n, ok, comp.Err)
	}
	data := make([]byte, n*SectorSize)
	unwritten := make([]bool, n)
	for i := range unwritten {
		if comp.Data == nil || comp.Data[i] == nil {
			unwritten[i] = true
			continue
		}
		copy(data[int64(i)*SectorSize:], comp.Data[i])
	}
	return data, unwritten
}

// TestReadIntoMatchesRead pins that the three read deliveries are one read:
// over a device in every state a sector can be in, Read, ReadInto (into a
// dirty buffer) and the asynchronous per-sector completion return the same
// bytes — zeros exactly where the completion says "unwritten" — finish at
// the same virtual instants and leave the same FTL and NAND counters.
func TestReadIntoMatchesRead(t *testing.T) {
	type result struct {
		image    []byte
		instants []time.Duration
		stats    ftl.Stats
		counters nand.Counters
	}
	run := func(t *testing.T, read readForm) result {
		dev, written := readFixture(t)
		zcap := dev.ZoneBytes() / SectorSize
		zeros := make([]byte, SectorSize)
		var res result
		// 64-sector reads over every zone, then short reads that straddle
		// each zone's written extent (data, then unwritten sectors).
		type span struct{ lba, n int64 }
		var spans []span
		for z := int64(0); z < int64(dev.NumZones()); z++ {
			for off := int64(0); off < zcap; off += 64 {
				spans = append(spans, span{z*zcap + off, 64})
			}
		}
		for z, w := range written {
			if w > 3 && w < zcap {
				spans = append(spans, span{int64(z)*zcap + w - 3, 7}, span{int64(z)*zcap + w - 1, 1}, span{int64(z)*zcap + w, 1})
			}
		}
		for _, s := range spans {
			data, unwritten := read(t, dev, s.lba, s.n)
			for i := int64(0); i < s.n; i++ {
				z, off := (s.lba+i)/zcap, (s.lba+i)%zcap
				holds := off < written[z]
				if unwritten != nil && unwritten[i] == holds {
					t.Fatalf("lba %d: completion reports unwritten=%v, fixture wrote it=%v", s.lba+i, unwritten[i], holds)
				}
				want := zeros
				if holds {
					want = pattern((s.lba+i)*SectorSize, int(SectorSize))
				}
				if !bytes.Equal(data[i*SectorSize:(i+1)*SectorSize], want) {
					t.Fatalf("lba %d (written=%v): wrong bytes", s.lba+i, holds)
				}
			}
			res.image = append(res.image, data...)
			res.instants = append(res.instants, dev.Now())
		}
		res.stats, res.counters = dev.FTL().Stats(), dev.FTL().Array().Counters()
		if err := dev.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(t, viaRead)
	for name, form := range map[string]readForm{"ReadInto": viaReadInto, "Completion.Data": viaCompletion} {
		t.Run(name, func(t *testing.T) {
			got := run(t, form)
			if !bytes.Equal(got.image, base.image) {
				t.Error("bytes differ from Read's")
			}
			for i := range base.instants {
				if got.instants[i] != base.instants[i] {
					t.Fatalf("read %d completes at %v, Read's at %v", i, got.instants[i], base.instants[i])
				}
			}
			if got.stats != base.stats {
				t.Errorf("FTL stats diverged:\n got %+v\nwant %+v", got.stats, base.stats)
			}
			if got.counters != base.counters {
				t.Errorf("NAND counters diverged:\n got %+v\nwant %+v", got.counters, base.counters)
			}
		})
	}
}

// TestReadIntoAllocations pins the cost of the two synchronous forms: a
// caller that owns its buffer allocates nothing, and Read allocates exactly
// the slice it returns.
func TestReadIntoAllocations(t *testing.T) {
	dev, _ := readFixture(t)
	const n = int(64 * SectorSize)
	dst := make([]byte, n)
	if got := testing.AllocsPerRun(100, func() {
		if err := dev.ReadInto(0, dst); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("ReadInto allocates %.1f times per 64-sector read, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := dev.Read(0, n); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("Read allocates %.1f times per 64-sector read, want 1", got)
	}
}

// TestReadIntoRejectsBadArguments pins the validation at both layers: the
// public call gives Read's alignment errors, and a destination of the wrong
// length through Submit is refused at submission — an error, not a panic
// at dispatch — and occupies no queue slot.
func TestReadIntoRejectsBadArguments(t *testing.T) {
	dev := openSmall(t)
	for _, c := range []struct {
		name string
		off  int64
		n    int
	}{
		{"misaligned offset", 1, int(SectorSize)},
		{"negative offset", -SectorSize, int(SectorSize)},
		{"empty dst", 0, 0},
		{"ragged dst", 0, int(SectorSize) + 1},
	} {
		err := dev.ReadInto(c.off, make([]byte, c.n))
		_, want := dev.Read(c.off, c.n)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s: ReadInto says %v, Read says %v", c.name, err, want)
		}
	}
	for _, dst := range [][]byte{make([]byte, SectorSize), make([]byte, 3*SectorSize), {}} {
		_, err := dev.Submit(0, HostRequest{Op: OpRead, LBA: 0, N: 2, Dst: dst})
		if err == nil || !strings.Contains(err.Error(), "destination") {
			t.Errorf("2-sector read into %d bytes: %v", len(dst), err)
		}
	}
	if !dev.Host().Idle() {
		t.Error("a refused read left a command behind")
	}
	// The right length goes through, and the completion carries no Data.
	dst := bytes.Repeat([]byte{0xD1}, int(2*SectorSize))
	tag, err := dev.Submit(0, HostRequest{Op: OpRead, LBA: 0, N: 2, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := dev.Wait(tag)
	if !ok || comp.Err != nil || comp.Data != nil {
		t.Fatalf("flat read: reaped %v, err %v, %d Data entries", ok, comp.Err, len(comp.Data))
	}
	if !bytes.Equal(dst, make([]byte, 2*SectorSize)) {
		t.Error("unwritten sectors not cleared in Dst")
	}
}
