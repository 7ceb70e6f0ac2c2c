package nand_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/check"
	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/units"
)

// agedSmallImage is the v2 image of a config.Small() device that wrote three
// zones through the FTL — a direct program unit, SLC-staged tails, a flushed
// zone that was then reset — so recovery has winners, losers and a journal
// to work through.
func agedSmallImage(tb testing.TB) []byte {
	tb.Helper()
	cfg := config.Small()
	f, err := ftl.New(cfg.Geometry, cfg.Latency, cfg.FTL)
	if err != nil {
		tb.Fatal(err)
	}
	zcap := f.ZoneCapSectors()
	at := f.Array().Engine().Now()
	for _, w := range []struct {
		zone, sectors int
		reset         bool
	}{{0, 27, false}, {1, 5, true}, {2, 3, false}} {
		pay := make([][]byte, w.sectors)
		for i := range pay {
			pay[i] = bytes.Repeat([]byte{byte(16*w.zone + i + 1)}, int(units.Sector))
		}
		if at, err = f.Write(at, int64(w.zone)*zcap, pay); err != nil {
			tb.Fatal(err)
		}
		if at, err = f.Flush(at, w.zone); err != nil {
			tb.Fatal(err)
		}
		if w.reset {
			if at, err = f.ResetZone(at, w.zone); err != nil {
				tb.Fatal(err)
			}
		}
	}
	b, err := f.Array().ImageBytes()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestAgedImagePinned pins the bytes SaveImage writes for the aged device: one
// device state has one encoding, the same in every process, and a change to
// it is a new format version, not an edit.
func TestAgedImagePinned(t *testing.T) {
	const want = "b1f3d0fdec6716ef812489215e878a81c10bc20790cfd485ee923d73f07ce241"
	if got := fmt.Sprintf("%x", sha256.Sum256(agedSmallImage(t))); got != want {
		t.Fatalf("the aged config.Small() device saves to sha256 %s, pinned %s", got, want)
	}
}

// loadAndMount is the fuzz property. Loading never panics, refuses with one
// of the two typed classes, and allocates no more than a small multiple of
// the input plus what the header's geometry fixes (the chunk directory and
// the transfer-time table); an image that loads under config.Small()'s
// geometry either fails recovery with an error or mounts audit-clean.
func loadAndMount(t *testing.T, data []byte) {
	cfg := config.Small()
	// An image's journal may record retirements, which the audit accepts
	// only with a fault model: mount with one that never fires.
	cfg.FTL.Faults = &fault.Config{Seed: 1}
	fixed := nand.ImageFixedAlloc(data)
	if fixed > 16<<20 {
		t.Skip("a geometry this large is legal and slow; the bound below is linear in it")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	arr, err := nand.ReadImage(data, cfg.Latency)
	runtime.ReadMemStats(&after)
	// Two per byte: a payload is copied once into its slab and everything
	// else in the file is smaller in memory than on disk. 1 MiB: the 256 KiB
	// read buffer and the fuzz worker's own goroutines.
	if got, bound := int64(after.TotalAlloc-before.TotalAlloc), 2*int64(len(data))+fixed+1<<20; got > bound {
		t.Fatalf("loading %d bytes allocated %d, bound %d", len(data), got, bound)
	}
	if err != nil {
		if !errors.Is(err, nand.ErrImageFormat) && !errors.Is(err, nand.ErrImageCorrupt) {
			t.Fatalf("refusal of neither class: %v", err)
		}
		return
	}
	if arr.Geometry() != cfg.Geometry {
		return
	}
	preWorn := arr.TotalEraseCount() > arr.Counters().Erases
	f, _, err := ftl.Recover(arr, cfg.FTL)
	if err != nil {
		return
	}
	if err := check.Audit(f); err != nil {
		// A pre-worn device (PreWear ages blocks without counting erases)
		// is a legal image the auditor's stats-erase rule does not cover.
		if preWorn && strings.Contains(err.Error(), "audit[stats-erase]") {
			return
		}
		t.Fatalf("an accepted image mounted into a state the audit refuses: %v", err)
	}
}

// FuzzLoadImage feeds the loader bytes. Each input is tried as it is and,
// when it still has the shape of a v2 image, again with its checksums
// recomputed — a byte-level fuzzer does not find a CRC32C preimage, and
// without that the rules behind the checksums would only ever see what
// SaveImage wrote.
func FuzzLoadImage(f *testing.F) {
	cfg := config.Small()
	fresh, err := ftl.New(cfg.Geometry, cfg.Latency, cfg.FTL)
	if err != nil {
		f.Fatal(err)
	}
	untouched, err := fresh.Array().ImageBytes()
	if err != nil {
		f.Fatal(err)
	}
	huge := binary.AppendUvarint(nil, 1<<62)
	for _, img := range [][]byte{agedSmallImage(f), untouched} {
		f.Add(img)
		for _, n := range []int{0, 7, 100, 148, len(img) / 3, len(img) - 1} {
			f.Add(img[:n])
		}
		for _, at := range []int{0, 9, 40, 120, 150, 160, 400, len(img) / 2, len(img) - 2} {
			flipped := append([]byte(nil), img...)
			flipped[at] ^= 1 << uint(at%8)
			f.Add(flipped)
		}
		// Length prefixes claiming far more than the file holds, as 64-bit
		// words in the header's table and before each section.
		for _, at := range []int{0, 2, 116, 140, 148, 156, len(img) / 2} {
			inflated := append(append(append([]byte(nil), img[:at]...), 0xf8), bytes.Repeat([]byte{0x7f}, 8)...)
			f.Add(append(inflated, img[at+9:]...))
			f.Add(append(append(append([]byte(nil), img[:at]...), huge...), img[at:]...))
		}
	}
	// No magic at all, with enough behind it to be worth a mutation: the
	// refusal every image written before format v2 now gets.
	f.Add(append([]byte("not an image\x00"), untouched[:1024]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		loadAndMount(t, data)
		if sealed, ok := nand.ResealImage(data); ok && !bytes.Equal(sealed, data) {
			loadAndMount(t, sealed)
		}
	})
}
