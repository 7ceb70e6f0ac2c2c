package conzone

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/conzone/conzone/internal/nand"
)

// fillPattern builds n sectors of recognisable data keyed by (zone, tag).
func fillPattern(zone, tag, nSectors int) []byte {
	b := make([]byte, nSectors*int(SectorSize))
	for i := range b {
		b[i] = byte(zone*31 + tag*7 + i%127 + 1)
	}
	return b
}

// TestSaveImageOpenImageRoundTrip persists the NAND media to a file-backed
// image and reopens it: everything a flush barrier made durable reads back,
// zone write pointers match, and the reopened device is audit-clean and
// writable. A reset before the save must stay a reset after the load.
func TestSaveImageOpenImageRoundTrip(t *testing.T) {
	cfg := SmallConfig()
	dev, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	zb := dev.ZoneBytes()
	data0 := fillPattern(0, 1, 30)
	data2 := fillPattern(2, 1, 7)
	if err := dev.Write(0, data0); err != nil {
		t.Fatal(err)
	}
	if err := dev.FlushZone(0); err != nil {
		t.Fatal(err)
	}
	// Zone 1 is written, flushed, then reset: the image must not resurrect it.
	if err := dev.Write(zb, fillPattern(1, 1, 12)); err != nil {
		t.Fatal(err)
	}
	if err := dev.FlushZone(1); err != nil {
		t.Fatal(err)
	}
	if err := dev.ResetZone(1); err != nil {
		t.Fatal(err)
	}
	if err := dev.Write(2*zb, data2); err != nil {
		t.Fatal(err)
	}
	if err := dev.FlushZone(2); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "conzone.img")
	if err := dev.SaveImage(path); err != nil {
		t.Fatalf("save image: %v", err)
	}

	re, err := OpenImage(cfg, path)
	if err != nil {
		t.Fatalf("open image: %v", err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatalf("audit after image load: %v", err)
	}
	for _, c := range []struct {
		zone    int
		written int64
	}{{0, 30}, {1, 0}, {2, 7}} {
		z, err := re.Zone(c.zone)
		if err != nil {
			t.Fatal(err)
		}
		if z.Written() != c.written {
			t.Fatalf("zone %d recovered WP = %d sectors, want %d", c.zone, z.Written(), c.written)
		}
	}
	got, err := re.Read(0, len(data0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data0) {
		t.Fatal("zone 0 data did not survive the image round-trip")
	}
	got, err = re.Read(2*zb, len(data2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data2) {
		t.Fatal("zone 2 data did not survive the image round-trip")
	}
	got, err = re.Read(zb, int(3*SectorSize))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("reset zone byte %d = %#x after image load, want 0", i, b)
		}
	}
	// The reopened device keeps working.
	more := fillPattern(1, 2, 4)
	if err := re.Write(zb, more); err != nil {
		t.Fatalf("write on reopened device: %v", err)
	}
	if err := re.FlushZone(1); err != nil {
		t.Fatal(err)
	}
	if got, err := re.Read(zb, len(more)); err != nil || !bytes.Equal(got, more) {
		t.Fatalf("reopened device write/read: %v", err)
	}

	// A geometry mismatch is refused outright.
	bad := SmallConfig()
	bad.Geometry.BlocksPerChip++
	if _, err := OpenImage(bad, path); err == nil {
		t.Fatal("image opened under a different geometry")
	}
}

// runDeterministicOps drives one device through a fixed write/flush/reset
// schedule, remounting after op 'remountAt' (-1 for never), and returns a
// transcript of per-op results for comparison.
func runDeterministicOps(t *testing.T, dev *Device, nOps, remountAt int) []string {
	t.Helper()
	var log []string
	wp := make([]int64, dev.NumZones())
	zb := dev.ZoneBytes()
	for i := 0; i < nOps; i++ {
		zone := i % 4
		switch {
		case i%17 == 16:
			err := dev.ResetZone(zone)
			log = append(log, fmt.Sprintf("reset z%d: %v", zone, err))
			if err == nil {
				wp[zone] = 0
			}
		default:
			n := int64(4 + i%8)
			if left := dev.ZoneBytes()/SectorSize - wp[zone]; n > left {
				n = left
			}
			if n <= 0 {
				continue
			}
			data := fillPattern(zone, i, int(n))
			err := dev.Write(int64(zone)*zb+wp[zone]*SectorSize, data)
			log = append(log, fmt.Sprintf("write z%d+%d x%d: %v", zone, wp[zone], n, err))
			if err != nil {
				continue
			}
			wp[zone] += n
			err = dev.FlushZone(zone)
			log = append(log, fmt.Sprintf("flush z%d: %v", zone, err))
		}
		if i == remountAt {
			if err := dev.Remount(); err != nil {
				t.Fatalf("remount after op %d: %v", i, err)
			}
		}
	}
	return log
}

// TestFaultStreamDeterministicAcrossRemount: with a seeded fault injector,
// a run that crashes at a barrier and remounts must see exactly the fault
// sequence an uninterrupted run sees — same per-op results, same fault
// counters, same final media state. This is what fault.Snapshot/Restore
// across ftl.Recover buys.
func TestFaultStreamDeterministicAcrossRemount(t *testing.T) {
	cfg := SmallConfig()
	cfg.FTL.SpareSuperblocks = 2
	cfg.FTL.Faults = &FaultConfig{
		Seed: 0xD373,
		TLC:  FaultProbabilities{ProgramFail: 0.15},
	}
	const nOps = 50
	devA, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	devB, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logA := runDeterministicOps(t, devA, nOps, -1)
	logB := runDeterministicOps(t, devB, nOps, 24)
	if len(logA) != len(logB) {
		t.Fatalf("transcript lengths diverged: %d vs %d", len(logA), len(logB))
	}
	for i := range logA {
		if logA[i] != logB[i] {
			t.Fatalf("op result %d diverged:\n  uninterrupted: %s\n  remounted:     %s", i, logA[i], logB[i])
		}
	}
	sa, sb := devA.FTL().Stats(), devB.FTL().Stats()
	fa, fb := devA.FTL().FaultInjector().Stats(), devB.FTL().FaultInjector().Stats()
	if fa.ProgramFails != fb.ProgramFails || fa.EraseFails != fb.EraseFails ||
		sa.RetiredSuperblocks != sb.RetiredSuperblocks {
		t.Fatalf("fault counters diverged:\n  uninterrupted: pf=%d ef=%d retired=%d\n  remounted:     pf=%d ef=%d retired=%d",
			fa.ProgramFails, fa.EraseFails, sa.RetiredSuperblocks,
			fb.ProgramFails, fb.EraseFails, sb.RetiredSuperblocks)
	}
	if sb.LostAckSectors != 0 {
		t.Fatalf("remounted run lost %d acknowledged sectors", sb.LostAckSectors)
	}
	// Final media state must agree wherever both accepted the data.
	zb := devA.ZoneBytes()
	for zone := 0; zone < 4; zone++ {
		za, _ := devA.Zone(zone)
		zbi, _ := devB.Zone(zone)
		if za.Written() != zbi.Written() {
			t.Fatalf("zone %d WP diverged: %d vs %d", zone, za.Written(), zbi.Written())
		}
		if za.Written() == 0 {
			continue
		}
		n := int(za.Written() * SectorSize)
		ga, err := devA.Read(int64(zone)*zb, n)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := devB.Read(int64(zone)*zb, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ga, gb) {
			t.Fatalf("zone %d contents diverged after remount", zone)
		}
	}
	if err := devB.CheckInvariants(); err != nil {
		t.Fatalf("remounted device audit: %v", err)
	}
}

// TestRemountPreservesQueueLayout: a remount rebuilds the host controller
// with the queue configuration in effect, not the defaults.
func TestRemountPreservesQueueLayout(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ConfigureQueues(2, 8); err != nil {
		t.Fatal(err)
	}
	if err := dev.Remount(); err != nil {
		t.Fatal(err)
	}
	if got := dev.Host().Queues(); got != 2 {
		t.Fatalf("queues after remount = %d, want 2", got)
	}
	cfg := dev.Host().Configuration()
	if cfg.Queues != 2 || cfg.Depth != 8 {
		t.Fatalf("queue configuration after remount = %+v, want {2 8}", cfg)
	}
}

// writtenDevice opens a paper-scale device and writes mib MiB of patterned
// data from the start of zone 0 on, flushing each zone it touches.
func writtenDevice(tb testing.TB, mib int) *Device {
	tb.Helper()
	dev, err := Open(PaperConfig())
	if err != nil {
		tb.Fatal(err)
	}
	const step = 256 // sectors per write
	chunk := fillPattern(0, 3, step)
	zb := dev.ZoneBytes()
	left := int64(mib) << 20
	for zone := 0; left > 0; zone++ {
		for off := int64(0); off < zb && left > 0; off += int64(len(chunk)) {
			n := min(int64(len(chunk)), zb-off, left)
			if err := dev.Write(int64(zone)*zb+off, chunk[:n]); err != nil {
				tb.Fatal(err)
			}
			left -= n
		}
		if err := dev.FlushZone(zone); err != nil {
			tb.Fatal(err)
		}
	}
	return dev
}

// TestImageCostsWhatItHolds pins the image's cost to the media's contents:
// an untouched paper-scale device saves to a few KiB (the dense v1 form
// wrote 1.3 MB of flags and stamps), a written one to its payload sectors
// plus 1 % and that constant, and saving allocates a constant however much
// was written — the writer holds no copy of the media.
func TestImageCostsWhatItHolds(t *testing.T) {
	const fixed = 64 << 10
	path := filepath.Join(t.TempDir(), "dev.img")
	for _, mib := range []int{0, 8, 64} {
		dev := writtenDevice(t, mib)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := dev.SaveImage(path); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Errorf("%d MiB written: SaveImage allocated %d bytes, want at most 4 MiB", mib, got)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		arr := dev.FTL().Array()
		var payloads int64
		for ppa := nand.PPA(0); int64(ppa) < arr.Geometry().TotalSectors(); ppa++ {
			if arr.Payload(ppa) != nil {
				payloads++
			}
		}
		if payloads < int64(mib)<<20/SectorSize {
			t.Fatalf("%d MiB written but only %d payload sectors on the media", mib, payloads)
		}
		if bound := payloads*SectorSize*101/100 + fixed; st.Size() >= bound {
			t.Errorf("%d MiB written, %d payload sectors: image of %d bytes, want under %d", mib, payloads, st.Size(), bound)
		}
		t.Logf("%d MiB written: %d payload sectors, image %d bytes, SaveImage allocated %d bytes",
			mib, payloads, st.Size(), after.TotalAlloc-before.TotalAlloc)
	}
}

// TestOpenImageErrorClasses: both refusal classes survive OpenImage's
// wrapping, and a refused file never yields a device.
func TestOpenImageErrorClasses(t *testing.T) {
	dev := writtenDevice(t, 1)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.img")
	if err := dev.SaveImage(good); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 4
	for _, c := range []struct {
		name  string
		bytes []byte
		class error
	}{
		{"not an image", []byte("zone,wp\n0,512\n"), ErrImageFormat},
		{"one flipped bit", flipped, ErrImageCorrupt},
		{"truncated", img[:len(img)-4096], ErrImageCorrupt},
	} {
		path := filepath.Join(dir, "bad.img")
		if err := os.WriteFile(path, c.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenImage(PaperConfig(), path)
		if re != nil || !errors.Is(err, c.class) {
			t.Errorf("%s: OpenImage returned %v, want %v", c.name, err, c.class)
		}
	}
}
