package nand

import (
	"bytes"
	"errors"
	"testing"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// countingInjector records how many fault decisions the array asked for.
// A torn operation must consume none: the fault-RNG stream has to look the
// same whether or not a cut fired, or crash-and-remount runs would diverge
// from uninterrupted ones.
type countingInjector struct {
	programs, erases, reads int
}

func (c *countingInjector) ProgramFails(Media, int, int, int64) bool { c.programs++; return false }
func (c *countingInjector) EraseFails(Media, int, int, int64) bool   { c.erases++; return false }
func (c *countingInjector) ReadFault(Media, int, int, int64) (int, bool) {
	c.reads++
	return 0, false
}

func slcPagePayload(g Geometry, b byte) [][]byte {
	sectors := make([][]byte, g.SectorsPerPage())
	for i := range sectors {
		s := make([]byte, units.Sector)
		for j := range s {
			s[j] = b
		}
		sectors[i] = s
	}
	return sectors
}

// TestTornProgramPU: a multi-plane program that would complete past the cut
// instant is torn atomically — every sector of the wordline stays
// unwritten, the block's append point does not move, and no fault decision
// is consumed. The array is dead afterwards.
func TestTornProgramPU(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	inj := &countingInjector{}
	a.SetFaultInjector(inj)
	blk := g.FirstNormalBlock()

	// First PU lands normally.
	_, done, err := a.ProgramPU(0, 0, blk, 0, puPayload(g, 0x11))
	if err != nil {
		t.Fatal(err)
	}
	if inj.programs != 1 {
		t.Fatalf("landed program consumed %d fault decisions, want 1", inj.programs)
	}
	next := a.NextProgramSector(0, blk)
	before := a.Counters()

	// The second PU would complete after the cut: torn.
	a.ArmPowerCut(done.Add(1))
	_, _, err = a.ProgramPU(done, 0, blk, g.PagesPerPU(), puPayload(g, 0x22))
	if !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("torn program: err = %v, want ErrPowerLoss", err)
	}
	if !a.PowerLost() {
		t.Fatal("array alive after a torn program")
	}
	if inj.programs != 1 {
		t.Fatalf("torn program consumed a fault decision (%d draws)", inj.programs)
	}
	if got := a.NextProgramSector(0, blk); got != next {
		t.Fatalf("append point moved across a torn program: %d -> %d", next, got)
	}
	if a.Counters().PUPrograms != before.PUPrograms || a.Counters().BytesProgrammed != before.BytesProgrammed {
		t.Fatal("torn program charged media counters")
	}
	// Every sector of the torn wordline reads back as unwritten; no OOB.
	for pg := g.PagesPerPU(); pg < 2*g.PagesPerPU(); pg++ {
		for s := 0; s < g.SectorsPerPage(); s++ {
			ppa := g.PPAOf(Addr{Chip: 0, Block: blk, Page: pg, Sector: s})
			if a.IsWritten(ppa) {
				t.Fatalf("torn page %d sector %d marked written", pg, s)
			}
			if lpa, _ := a.OOB(ppa); lpa != -1 {
				t.Fatalf("torn page %d sector %d carries an OOB stamp", pg, s)
			}
		}
	}
	// The first PU is untouched.
	ppa0 := g.PPAOf(Addr{Chip: 0, Block: blk})
	if !a.IsWritten(ppa0) || !bytes.Equal(a.Payload(ppa0), puPayload(g, 0x11)[0]) {
		t.Fatal("pre-cut program corrupted by the torn one")
	}
	// Dead array: everything fails, nothing draws randomness.
	if _, _, err := a.ProgramPU(done, 1, blk, 0, puPayload(g, 0x33)); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("program on dead array: %v", err)
	}
	if _, err := a.ReadPage(done, 0, blk, 0, g.PageSize); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("read on dead array: %v", err)
	}
	if _, err := a.Erase(done, 0, blk); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("erase on dead array: %v", err)
	}
	if inj.programs != 1 || inj.erases != 0 || inj.reads != 0 {
		t.Fatalf("dead array consumed fault decisions: %+v", *inj)
	}
}

// TestTornProgramLastPUOfBlock tears the final wordline of a block: the
// fully programmed prefix survives intact and the append point stays at the
// last-PU boundary, which is how recovery distinguishes a full block from
// an almost-full one.
func TestTornProgramLastPUOfBlock(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	blk := g.FirstNormalBlock()
	at := sim.Time(0)
	for pu := 0; pu < g.PUsPerBlock()-1; pu++ {
		_, done, err := a.ProgramPU(at, 0, blk, pu*g.PagesPerPU(), puPayload(g, byte(pu+1)))
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	want := (g.PUsPerBlock() - 1) * g.PagesPerPU() * g.SectorsPerPage()
	a.ArmPowerCut(at.Add(1))
	if _, _, err := a.ProgramPU(at, 0, blk, (g.PUsPerBlock()-1)*g.PagesPerPU(), puPayload(g, 0xFF)); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("torn last PU: %v", err)
	}
	if got := a.NextProgramSector(0, blk); got != want {
		t.Fatalf("append point = %d after torn last PU, want %d", got, want)
	}
	for pu := 0; pu < g.PUsPerBlock()-1; pu++ {
		ppa := g.PPAOf(Addr{Chip: 0, Block: blk, Page: pu * g.PagesPerPU()})
		if !bytes.Equal(a.Payload(ppa), puPayload(g, byte(pu+1))[0]) {
			t.Fatalf("PU %d corrupted by torn last PU", pu)
		}
	}
}

// TestTornSLCPageProgram: SLC-mode page programs gate the same way as
// normal-media PU programs.
func TestTornSLCPageProgram(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	_, done, err := a.ProgramSLCPage(0, 0, 0, 0, slcPagePayload(g, 0x44))
	if err != nil {
		t.Fatal(err)
	}
	a.ArmPowerCut(done.Add(1))
	if _, _, err := a.ProgramSLCPage(done, 0, 0, 1, slcPagePayload(g, 0x55)); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("torn SLC page: %v", err)
	}
	for s := 0; s < g.SectorsPerPage(); s++ {
		if a.IsWritten(g.PPAOf(Addr{Chip: 0, Block: 0, Page: 1, Sector: s})) {
			t.Fatalf("torn SLC page sector %d marked written", s)
		}
	}
	if got := a.NextProgramSector(0, 0); got != g.SectorsPerPage() {
		t.Fatalf("SLC append point = %d after torn page, want %d", got, g.SectorsPerPage())
	}
	if !a.IsWritten(g.PPAOf(Addr{Chip: 0, Block: 0, Page: 0})) {
		t.Fatal("landed SLC page lost")
	}
}

// TestTornProgramQLC runs the torn-PU check on QLC media, whose larger
// program unit spans more pages per wordline.
func TestTornProgramQLC(t *testing.T) {
	g := testGeometry()
	g.NormalMedia = QLC
	g.SLCPagesPerBlock = 6 // 24 / 4 bits per cell
	a, err := NewArray(g, DefaultLatencies(), sim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	blk := g.FirstNormalBlock()
	_, done, err := a.ProgramPU(0, 0, blk, 0, puPayload(g, 0x66))
	if err != nil {
		t.Fatal(err)
	}
	a.ArmPowerCut(done.Add(1))
	if _, _, err := a.ProgramPU(done, 0, blk, g.PagesPerPU(), puPayload(g, 0x77)); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("torn QLC program: %v", err)
	}
	for pg := g.PagesPerPU(); pg < 2*g.PagesPerPU(); pg++ {
		for s := 0; s < g.SectorsPerPage(); s++ {
			if a.IsWritten(g.PPAOf(Addr{Chip: 0, Block: blk, Page: pg, Sector: s})) {
				t.Fatalf("torn QLC page %d sector %d marked written", pg, s)
			}
		}
	}
	if got := a.NextProgramSector(0, blk); got != g.PagesPerPU()*g.SectorsPerPage() {
		t.Fatalf("QLC append point moved across torn program: %d", got)
	}
}

// TestTornEraseKeepsContents: a torn erase leaves the block exactly as it
// was — payloads, write marks, OOB stamps and the wear counter — so
// recovery sees either the old block or a fully erased one, never a
// half-erased mix.
func TestTornEraseKeepsContents(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	blk := g.FirstNormalBlock()
	_, done, err := a.ProgramPU(0, 0, blk, 0, puPayload(g, 0x88))
	if err != nil {
		t.Fatal(err)
	}
	ppa := g.PPAOf(Addr{Chip: 0, Block: blk})
	a.StampOOB(ppa, 1234)
	wear := a.EraseCount(0, blk)

	a.ArmPowerCut(done.Add(1))
	if _, err := a.Erase(done, 0, blk); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("torn erase: %v", err)
	}
	if !a.IsWritten(ppa) || !bytes.Equal(a.Payload(ppa), puPayload(g, 0x88)[0]) {
		t.Fatal("torn erase modified block contents")
	}
	if lpa, _ := a.OOB(ppa); lpa != 1234 {
		t.Fatal("torn erase cleared OOB stamps")
	}
	if a.EraseCount(0, blk) != wear {
		t.Fatal("torn erase charged wear")
	}

	// Power back on: the same erase completes and clears everything.
	a.PowerOn()
	if _, err := a.Erase(done, 0, blk); err != nil {
		t.Fatal(err)
	}
	if a.IsWritten(ppa) {
		t.Fatal("erase after power-on left data")
	}
	if lpa, seq := a.OOB(ppa); lpa != -1 || seq != 0 {
		t.Fatal("erase after power-on left OOB stamps")
	}
	if a.EraseCount(0, blk) != wear+1 {
		t.Fatal("erase after power-on did not count wear")
	}
}

// TestTornRead: a read that would complete past the cut returns ErrPowerLoss
// without consuming a fault decision; re-arming after PowerOn works.
func TestTornRead(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	inj := &countingInjector{}
	a.SetFaultInjector(inj)
	blk := g.FirstNormalBlock()
	_, done, err := a.ProgramPU(0, 0, blk, 0, puPayload(g, 0x99))
	if err != nil {
		t.Fatal(err)
	}
	a.ArmPowerCut(done.Add(1))
	if _, err := a.ReadPage(done, 0, blk, 0, g.PageSize); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("torn read: %v", err)
	}
	if inj.reads != 0 {
		t.Fatal("torn read consumed a fault decision")
	}
	a.PowerOn()
	if _, err := a.ReadPage(done, 0, blk, 0, g.PageSize); err != nil {
		t.Fatalf("read after power-on: %v", err)
	}
	if inj.reads != 1 {
		t.Fatalf("read after power-on drew %d fault decisions, want 1", inj.reads)
	}
}

// TestOOBAndJournal covers the recovery metadata primitives directly:
// stamping orders sectors globally, copies keep their sequence number, and
// journal records append in order.
func TestOOBAndJournal(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	p1 := g.PPAOf(Addr{Chip: 0, Block: g.FirstNormalBlock()})
	p2 := p1 + 1
	p3 := p1 + 2
	a.StampOOB(p1, 100)
	a.StampOOB(p2, 101)
	l1, s1 := a.OOB(p1)
	l2, s2 := a.OOB(p2)
	if l1 != 100 || l2 != 101 || s2 <= s1 {
		t.Fatalf("stamps not ordered: (%d,%d) then (%d,%d)", l1, s1, l2, s2)
	}
	a.CopyOOB(p3, p1)
	if l3, s3 := a.OOB(p3); l3 != 100 || s3 != s1 {
		t.Fatal("CopyOOB did not preserve the original stamp")
	}
	if a.NextSeq() <= s2 {
		t.Fatal("NextSeq not monotone")
	}
	if lpa, seq := a.OOB(PPA(-1)); lpa != -1 || seq != 0 {
		t.Fatal("out-of-range OOB lookup must read as unstamped")
	}
	a.MetaAppend(MetaRecord{Kind: MetaZoneReset, Zone: 3, Seq: 42})
	a.MetaAppend(MetaRecord{Kind: MetaRetireSB, SB: 7})
	j := a.MetaJournal()
	if len(j) != 2 || j[0].Zone != 3 || j[1].SB != 7 {
		t.Fatalf("journal = %+v", j)
	}
}
