package nand

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// denseMedia is the reference the sparse per-sector state is checked
// against: one entry per linear sector, the layout the array used to have.
type denseMedia struct {
	written []bool
	payload [][]byte
	oobLPA  []int64 // -1 = never stamped
	oobSeq  []int64
	seq     int64
}

func newDenseMedia(n int64) *denseMedia {
	d := &denseMedia{
		written: make([]bool, n),
		payload: make([][]byte, n),
		oobLPA:  make([]int64, n),
		oobSeq:  make([]int64, n),
	}
	for i := range d.oobLPA {
		d.oobLPA[i] = -1
	}
	return d
}

func (d *denseMedia) program(idx int64, p []byte) {
	d.written[idx] = true
	d.payload[idx] = nil
	if p != nil {
		d.payload[idx] = append([]byte(nil), p...)
	}
}

func (d *denseMedia) erase(lo, hi int64) {
	for i := lo; i < hi; i++ {
		d.written[i], d.payload[i], d.oobLPA[i], d.oobSeq[i] = false, nil, -1, 0
	}
}

// check compares every sector of the array with the reference.
func (d *denseMedia) check(t *testing.T, a *Array, step int) {
	t.Helper()
	for i := range d.written {
		ppa := PPA(i)
		if got := a.IsWritten(ppa); got != d.written[i] {
			t.Fatalf("step %d: sector %d IsWritten = %v, reference %v", step, i, got, d.written[i])
		}
		if got := a.Payload(ppa); !bytes.Equal(got, d.payload[i]) || (got == nil) != (d.payload[i] == nil) {
			t.Fatalf("step %d: sector %d payload differs from the reference", step, i)
		}
		lpa, seq := a.OOB(ppa)
		if lpa != d.oobLPA[i] || seq != d.oobSeq[i] {
			t.Fatalf("step %d: sector %d OOB = (%d,%d), reference (%d,%d)", step, i, lpa, seq, d.oobLPA[i], d.oobSeq[i])
		}
	}
}

// driveMediaStream runs a seeded sequence of full-unit, SLC page and SLC
// partial programs (with and without payloads), erases, OOB stamps and
// copies, and torn operations against a and the dense reference, calling
// each after every step. The geometry needs an SLC block and three normal
// blocks per chip.
func driveMediaStream(t *testing.T, a *Array, ref *denseMedia, seed int64, steps int, each func(step int)) {
	t.Helper()
	g := a.Geometry()
	rng := rand.New(rand.NewSource(seed))
	spp := g.SectorsPerPage()
	puSectors := int(g.ProgramUnit / units.Sector)
	blockSectors := int64(g.maxPagesPerBlock() * spp)
	sector := func() []byte {
		if rng.Intn(3) == 0 {
			return nil // timing-only sector
		}
		s := make([]byte, units.Sector)
		rng.Read(s)
		return s
	}
	var at sim.Time
	for step := 0; step < steps; step++ {
		chip := rng.Intn(g.Chips())
		// A third of the operations run into an armed power cut: they
		// charge their time and must leave no trace.
		torn := rng.Intn(3) == 0
		arm := func() {
			if torn {
				a.ArmPowerCut(at)
			}
		}
		var opErr error
		switch op := rng.Intn(10); {
		case op < 3: // full program unit on a normal block
			block := g.FirstNormalBlock() + rng.Intn(3)
			next := a.NextProgramSector(chip, block)
			if next+puSectors > g.PagesPerBlock*spp {
				continue
			}
			var pay [][]byte
			if rng.Intn(4) > 0 {
				pay = make([][]byte, puSectors)
				for i := range pay {
					pay[i] = sector()
				}
			}
			arm()
			_, at, opErr = a.ProgramPU(at, chip, block, next/spp, pay)
			if opErr == nil {
				base := int64(g.PPAOf(Addr{Chip: chip, Block: block, Page: next / spp}))
				for i := 0; i < puSectors; i++ {
					var p []byte
					if pay != nil {
						p = pay[i]
					}
					ref.program(base+int64(i), p)
				}
			}
		case op < 6: // SLC partial or whole-page program
			block := rng.Intn(g.SLCBlocks)
			next := a.NextProgramSector(chip, block)
			if next >= g.SLCPagesPerBlock*spp {
				continue
			}
			base := int64(g.PPAOf(Addr{Chip: chip, Block: block})) + int64(next)
			if next%spp == 0 && rng.Intn(2) == 0 {
				pay := make([][]byte, spp)
				for i := range pay {
					pay[i] = sector()
				}
				arm()
				_, at, opErr = a.ProgramSLCPage(at, chip, block, next/spp, pay)
				if opErr == nil {
					for i, p := range pay {
						ref.program(base+int64(i), p)
					}
				}
			} else {
				p := sector()
				arm()
				_, at, opErr = a.ProgramSLCSector(at, chip, block, next/spp, next%spp, p)
				if opErr == nil {
					ref.program(base, p)
				}
			}
		case op < 7: // erase, programmed or not
			block := rng.Intn(g.FirstNormalBlock() + 3)
			arm()
			at, opErr = a.Erase(at, chip, block)
			if opErr == nil {
				base := int64(g.PPAOf(Addr{Chip: chip, Block: block}))
				ref.erase(base, base+blockSectors)
			}
		case op < 9: // stamp any sector, programmed or not
			idx := rng.Int63n(g.TotalSectors())
			lpa := rng.Int63n(1 << 20)
			a.StampOOB(PPA(idx), lpa)
			ref.seq++
			ref.oobLPA[idx], ref.oobSeq[idx] = lpa, ref.seq
		default: // copy a stamp, possibly an absent one
			dst, src := rng.Int63n(g.TotalSectors()), rng.Int63n(g.TotalSectors())
			a.CopyOOB(PPA(dst), PPA(src))
			ref.oobLPA[dst], ref.oobSeq[dst] = ref.oobLPA[src], ref.oobSeq[src]
		}
		if opErr != nil && !(torn && errors.Is(opErr, ErrPowerLoss)) {
			t.Fatalf("seed %d step %d: %v", seed, step, opErr)
		}
		if a.PowerLost() {
			a.PowerOn()
		}
		each(step)
	}
}

// TestSparseMediaMatchesDenseModel checks the array sector by sector
// against the dense reference after every step of the seeded stream.
func TestSparseMediaMatchesDenseModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 0xC0FFEE} {
		g := testGeometry()
		a, err := NewArray(g, DefaultLatencies(), sim.NewEngine())
		if err != nil {
			t.Fatal(err)
		}
		ref := newDenseMedia(g.TotalSectors())
		driveMediaStream(t, a, ref, seed, 1500, func(step int) { ref.check(t, a, step) })

		// Out-of-range addresses read as erased.
		for _, ppa := range []PPA{-1, PPA(g.TotalSectors()), PPA(g.TotalSectors() + chunkSectors)} {
			if lpa, seq := a.OOB(ppa); a.IsWritten(ppa) || a.Payload(ppa) != nil || lpa != -1 || seq != 0 {
				t.Fatalf("out-of-range sector %d does not read as erased", ppa)
			}
		}

		// Erasing everything returns every chunk and slab to the freelists:
		// the resident state is again that of a fresh array.
		for chip := 0; chip < g.Chips(); chip++ {
			for block := 0; block < g.BlocksPerChip; block++ {
				if _, err = a.Erase(a.Engine().Now(), chip, block); err != nil {
					t.Fatal(err)
				}
			}
		}
		for ci, c := range a.chunks {
			if c != nil {
				t.Fatalf("seed %d: chunk %d still resident after erasing every block", seed, ci)
			}
		}
		if issued := int(a.slabs.issued); len(a.slabs.free) != issued {
			t.Fatalf("seed %d: %d of %d slabs not returned by erase", seed, issued-len(a.slabs.free), issued)
		}
		for _, c := range a.freeChunks {
			if *c != (sectorChunk{}) {
				t.Fatalf("seed %d: a recycled chunk is not all-zero", seed)
			}
		}
	}
}

// TestArrayCostsWhatItPrograms pins the construction and growth cost of the
// media state: a fresh array holds no chunk and no slab, and programming
// touches only the chunks its sectors fall in.
func TestArrayCostsWhatItPrograms(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	resident := func() (n int) {
		for _, c := range a.chunks {
			if c != nil {
				n++
			}
		}
		return n
	}
	if resident() != 0 || a.slabs.issued != 0 {
		t.Fatalf("fresh array holds %d chunks and %d slabs", resident(), a.slabs.issued)
	}
	block := g.FirstNormalBlock()
	if _, _, err := a.ProgramPU(0, 1, block, 0, nil); err != nil {
		t.Fatal(err)
	}
	nsect := int(g.ProgramUnit / units.Sector)
	if got, max := resident(), nsect/chunkSectors+2; got > max {
		t.Fatalf("one timing-only program unit (%d sectors) made %d chunks resident, want at most %d", nsect, got, max)
	}
	if a.slabs.issued != 0 {
		t.Fatalf("a program without payload allocated %d slabs", a.slabs.issued)
	}
}

// TestImageRoundTripKeepsUntouchedRegionsAbsent saves and reloads an array
// most of which was never programmed: the loaded array must match sector
// for sector and hold state only for the chunks the source held.
func TestImageRoundTripKeepsUntouchedRegionsAbsent(t *testing.T) {
	a := imageFixtureArray(t)
	path := filepath.Join(t.TempDir(), "a.img")
	if err := a.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	b, err := LoadArray(path, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	for ci := range a.chunks {
		if (a.chunks[ci] == nil) != (b.chunks[ci] == nil) {
			t.Fatalf("chunk %d resident in source: %v, after load: %v", ci, a.chunks[ci] != nil, b.chunks[ci] != nil)
		}
	}
	if live := int(a.slabs.issued) - len(a.slabs.free); int(b.slabs.issued) != live {
		t.Fatalf("loaded array holds %d slabs, source has %d live", b.slabs.issued, live)
	}
	sameMedia(t, b, a)
}
