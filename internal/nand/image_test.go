package nand

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/conzone/conzone/internal/units"
)

// parentImage is an image of imageFixtureArray's media written by the
// commit before the per-sector state became sparse (4e25651), when
// SaveImage serialized the dense arrays directly. It was built once, in a
// checkout of that commit, by a throwaway program that ran the body of
// imageFixtureArray and called SaveImage; nothing at this commit can or
// should rewrite it.
const parentImage = "testdata/v1_parent.img"

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

func decodeImage(t *testing.T, path string) imageFile {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var img imageFile
	if err := gob.NewDecoder(f).Decode(&img); err != nil {
		t.Fatal(err)
	}
	return img
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

// TestImageV1LayoutUnchanged pins the image format across the move to
// sparse media state: an image this commit saves decodes to exactly the
// file the parent commit wrote for the same media, and the parent's file
// loads into the same array.
func TestImageV1LayoutUnchanged(t *testing.T) {
	a := imageFixtureArray(t)
	path := filepath.Join(t.TempDir(), "now.img")
	if err := a.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	if now, parent := decodeImage(t, path), decodeImage(t, parentImage); !reflect.DeepEqual(now, parent) {
		t.Fatal("the saved image differs from the image the parent commit wrote for the same media")
	}
	loaded, err := LoadArray(parentImage, DefaultLatencies())
	if err != nil {
		t.Fatalf("parent-commit image no longer loads: %v", err)
	}
	sameMedia(t, loaded, a)
}

// TestLoadArrayRefusesPayloadOnUnwrittenSector guards the invariant the
// chunk recycling rests on — only programmed sectors hold a slab — against
// an image no SaveImage ever wrote.
func TestLoadArrayRefusesPayloadOnUnwrittenSector(t *testing.T) {
	img := decodeImage(t, parentImage)
	idx := int64(len(img.Written) - 1)
	if img.Written[idx] {
		t.Fatal("the fixture's last sector is programmed")
	}
	img.Payload[idx] = sectorOf(0xEE)
	path := filepath.Join(t.TempDir(), "bad.img")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(&img); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadArray(path, DefaultLatencies()); err == nil {
		t.Fatal("an image with a payload on an unwritten sector loaded")
	}
}
