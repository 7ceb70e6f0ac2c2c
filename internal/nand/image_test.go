package nand

import (
	"bytes"
	"errors"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/units"
)

// imageFixtureArray builds a small array whose media exercises every part
// of the image: payload and timing-only sectors, SLC partial programs, OOB
// stamps and a copied stamp, an erased block with wear, journal records —
// and whole chips that were never touched.
func imageFixtureArray(t *testing.T) *Array {
	t.Helper()
	a := newTestArray(t)
	g := a.Geometry()
	nb := g.FirstNormalBlock()
	stamp := func(base PPA, n int, lpa int64) {
		for i := 0; i < n; i++ {
			a.StampOOB(base+PPA(i), lpa+int64(i))
		}
	}
	nsect := int(g.ProgramUnit / units.Sector)
	for chip := 0; chip < 2; chip++ {
		// Mostly timing-only sectors: the fixture file stays small.
		pay := make([][]byte, nsect)
		pay[2], pay[nsect-1] = sectorOf(byte(0x10+chip)), sectorOf(byte(0x20+chip))
		if _, _, err := a.ProgramPU(0, chip, nb, 0, pay); err != nil {
			t.Fatal(err)
		}
		stamp(g.PPAOf(Addr{Chip: chip, Block: nb}), nsect, int64(chip*nsect))
	}
	if _, _, err := a.ProgramPU(0, 0, nb, g.PagesPerPU(), nil); err != nil {
		t.Fatal(err)
	}
	// A block that is programmed, then erased: wear without contents.
	if _, _, err := a.ProgramPU(0, 1, nb+1, 0, puPayload(g, 0x77)); err != nil { // payloads die with the erase
		t.Fatal(err)
	}
	if _, err := a.Erase(0, 1, nb+1); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		var p []byte
		if s == 1 {
			p = sectorOf(0xA1)
		}
		if _, _, err := a.ProgramSLCSector(0, 0, 1, 0, s, p); err != nil {
			t.Fatal(err)
		}
	}
	slc := g.PPAOf(Addr{Chip: 0, Block: 1})
	stamp(slc, 2, 900)
	a.CopyOOB(slc+2, g.PPAOf(Addr{Chip: 1, Block: nb})+5)
	a.MetaAppend(MetaRecord{Kind: MetaZoneReset, Zone: 3, Seq: a.NextSeq()})
	a.MetaAppend(MetaRecord{Kind: MetaRetireSB, SB: 2, Chip: 1, Block: nb + 2, Op: 1})
	return a
}

// sameMedia compares two arrays through the public surface, sector by
// sector and block by block.
func sameMedia(t *testing.T, got, want *Array) {
	t.Helper()
	g := want.Geometry()
	if got.Geometry() != g {
		t.Fatalf("geometry %+v, want %+v", got.Geometry(), g)
	}
	for i := int64(0); i < g.TotalSectors(); i++ {
		ppa := PPA(i)
		gl, gs := got.OOB(ppa)
		wl, ws := want.OOB(ppa)
		if got.IsWritten(ppa) != want.IsWritten(ppa) || gl != wl || gs != ws ||
			!bytes.Equal(got.Payload(ppa), want.Payload(ppa)) ||
			(got.Payload(ppa) == nil) != (want.Payload(ppa) == nil) {
			t.Fatalf("sector %d differs", i)
		}
	}
	for chip := 0; chip < g.Chips(); chip++ {
		for b := 0; b < g.BlocksPerChip; b++ {
			if got.NextProgramSector(chip, b) != want.NextProgramSector(chip, b) || got.EraseCount(chip, b) != want.EraseCount(chip, b) {
				t.Fatalf("block %d/%d state differs", chip, b)
			}
		}
	}
	if !reflect.DeepEqual(got.MetaJournal(), want.MetaJournal()) || got.Counters() != want.Counters() || got.NextSeq() != want.NextSeq() {
		t.Fatal("journal, counters or sequence counter differ")
	}
}

// imageBytes returns what SaveImage writes for a.
func imageBytes(t testing.TB, a *Array) []byte {
	t.Helper()
	b, err := a.ImageBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestImageLayoutUnchanged: what SaveImage writes loads into the same media
// and is one encoding of it — saving the loaded array, the same array again,
// or a second device in the same state gives the same bytes. (Which bytes is
// pinned by TestAgedImagePinned, on a device that went through the FTL.)
func TestImageLayoutUnchanged(t *testing.T) {
	a := imageFixtureArray(t)
	path := filepath.Join(t.TempDir(), "now.img")
	if err := a.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadArray(path, DefaultLatencies())
	if err != nil {
		t.Fatalf("the saved image does not load: %v", err)
	}
	// Bytes first: sameMedia draws a sequence number from both its arrays.
	if !bytes.Equal(imageBytes(t, reloaded), saved) || !bytes.Equal(imageBytes(t, a), saved) {
		t.Fatal("save, load, save is not byte-identical")
	}
	if !bytes.Equal(imageBytes(t, imageFixtureArray(t)), saved) {
		t.Fatal("two devices in the same state saved different bytes")
	}
	sameMedia(t, reloaded, a)
}

// payloadOnUnwritten sets the payload bit of the chunk record's highest
// unprogrammed sector and gives it a sector of bytes.
func payloadOnUnwritten(t *testing.T, p *v2Parts) []byte {
	t.Helper()
	body, at := p.body[secChunks], p.chunkAt(0)
	written, mask := wordAt(body, at+8).get(), wordAt(body, at+24)
	i := 63 - bits.LeadingZeros64(^written)
	if i < 0 || mask.get()>>uint(i) != 0 {
		t.Fatal("the fixture's first chunk has no unprogrammed sector above its payloads")
	}
	end := at + chunkRecordLen + bits.OnesCount64(mask.get())*int(units.Sector)
	mask.set(mask.get() | 1<<uint(i))
	p.body[secChunks] = append(body[:end:end], append(sectorOf(0xEE), body[end:]...)...)
	return p.fit().bytes()
}

// TestLoadArrayRefusesPayloadOnUnwrittenSectorV2 guards the invariant the
// chunk recycling rests on — only programmed sectors hold a slab — against
// an image no SaveImage ever wrote, checksums intact.
func TestLoadArrayRefusesPayloadOnUnwrittenSectorV2(t *testing.T) {
	p, ok := parseV2(imageBytes(t, imageFixtureArray(t)))
	if !ok {
		t.Fatal("the saved image does not parse")
	}
	_, err := ReadImage(payloadOnUnwritten(t, p), DefaultLatencies())
	if !errors.Is(err, ErrImageCorrupt) || !strings.Contains(err.Error(), "payload on unwritten sector") {
		t.Fatalf("a v2 image with a payload on an unwritten sector: %v", err)
	}
}

// failAfter passes n bytes through and then fails, like a full disk.
type failAfter struct {
	w io.Writer
	n int
}

var errDiskFull = errors.New("no space left on test device")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return f.w.Write(p)
	}
	n, _ := f.w.Write(p[:f.n])
	f.n = 0
	return n, errDiskFull
}

// TestFailedSaveKeepsPreviousImage: a save that fails part-way leaves the
// file that was there byte for byte, and no temporary behind.
func TestFailedSaveKeepsPreviousImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dev.img")
	a := imageFixtureArray(t)
	if err := a.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The device moves on; saving its new state fails after n bytes.
	g := a.Geometry()
	if _, _, err := a.ProgramPU(0, 2, g.FirstNormalBlock(), 0, puPayload(g, 0x5A)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, imageHeaderLen, 5000, len(good), len(imageBytes(t, a)) - 1} {
		err := replaceFile(path, func(w io.Writer) error { return a.writeImage(&failAfter{w: w, n: n}) })
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("save failing after %d bytes returned %v", n, err)
		}
		if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, good) {
			t.Fatalf("after a save that failed at byte %d the previous image is gone or changed (%v)", n, err)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("after a save that failed at byte %d the directory holds %d files, want the image alone", n, len(ents))
		}
	}
	if err := a.SaveImage(filepath.Join(dir, "missing", "dev.img")); err == nil {
		t.Fatal("saving into a directory that does not exist succeeded")
	}
	if err := a.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	b, err := LoadArray(path, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	sameMedia(t, b, a)
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("a successful save left %d files", len(ents))
	}
}
