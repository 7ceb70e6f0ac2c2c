package nand

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

func newTestArray(t *testing.T) *Array {
	t.Helper()
	a, err := NewArray(testGeometry(), DefaultLatencies(), sim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func puPayload(g Geometry, b byte) [][]byte {
	sectors := make([][]byte, g.ProgramUnit/units.Sector)
	for i := range sectors {
		s := make([]byte, units.Sector)
		for j := range s {
			s[j] = b
		}
		sectors[i] = s
	}
	return sectors
}

func TestNewArrayRejectsBadGeometry(t *testing.T) {
	g := testGeometry()
	g.Channels = 0
	if _, err := NewArray(g, DefaultLatencies(), nil); err == nil {
		t.Error("expected geometry error")
	}
	g = testGeometry()
	lat := DefaultLatencies()
	lat.TLC.Read = 0
	if _, err := NewArray(g, lat, nil); err == nil {
		t.Error("expected latency error")
	}
}

func TestNewArrayNilEngine(t *testing.T) {
	a, err := NewArray(testGeometry(), DefaultLatencies(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine() == nil {
		t.Error("array must create an engine when given none")
	}
}

func TestProgramPUTimingAndPayload(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	pay := puPayload(g, 0xAB)
	_, done, err := a.ProgramPU(0, 0, g.FirstNormalBlock(), 0, pay)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: transfer 96 KiB at 3200 MiB/s (~28.6 us) + tPROG 937.5 us.
	xfer := units.TransferTime(96*units.KiB, 3200)
	want := sim.Time(0).Add(xfer + 937500*time.Nanosecond)
	if done != want {
		t.Errorf("ProgramPU done = %v, want %v", done, want)
	}
	// All six pages' sectors must be written with the payload.
	for pg := 0; pg < g.PagesPerPU(); pg++ {
		for s := 0; s < g.SectorsPerPage(); s++ {
			ppa := g.PPAOf(Addr{Chip: 0, Block: g.FirstNormalBlock(), Page: pg, Sector: s})
			if !a.IsWritten(ppa) {
				t.Fatalf("page %d sector %d not marked written", pg, s)
			}
			if !bytes.Equal(a.Payload(ppa), pay[pg*g.SectorsPerPage()+s]) {
				t.Fatalf("payload mismatch at page %d sector %d", pg, s)
			}
		}
	}
	c := a.Counters()
	if c.PUPrograms != 1 || c.BytesProgrammed != 96*units.KiB {
		t.Errorf("counters = %+v", c)
	}
}

func TestProgramPUOrderEnforced(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	blk := g.FirstNormalBlock()
	// Skipping the first PU must fail.
	if _, _, err := a.ProgramPU(0, 0, blk, g.PagesPerPU(), nil); err == nil {
		t.Error("out-of-order PU accepted")
	}
	if _, _, err := a.ProgramPU(0, 0, blk, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Re-programming the same PU without erase must fail.
	if _, _, err := a.ProgramPU(0, 0, blk, 0, nil); err == nil {
		t.Error("double program accepted")
	}
	// The next PU in order succeeds.
	if _, _, err := a.ProgramPU(10, 0, blk, g.PagesPerPU(), nil); err != nil {
		t.Errorf("sequential PU rejected: %v", err)
	}
}

func TestProgramPURejections(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	if _, _, err := a.ProgramPU(0, 0, 0, 0, nil); err == nil {
		t.Error("PU program on SLC block accepted")
	}
	if _, _, err := a.ProgramPU(0, 99, g.FirstNormalBlock(), 0, nil); err == nil {
		t.Error("bad chip accepted")
	}
	if _, _, err := a.ProgramPU(0, 0, g.FirstNormalBlock(), 1, nil); err == nil {
		t.Error("unaligned start page accepted")
	}
	short := make([][]byte, 1)
	if _, _, err := a.ProgramPU(0, 0, g.FirstNormalBlock(), 0, short); err == nil {
		t.Error("wrong sector count accepted")
	}
	bad := make([][]byte, g.ProgramUnit/units.Sector)
	bad[0] = []byte{1}
	if _, _, err := a.ProgramPU(0, 0, g.FirstNormalBlock(), 0, bad); err == nil {
		t.Error("short sector payload accepted")
	}
}

func TestProgramSLCSector(t *testing.T) {
	a := newTestArray(t)
	pay := bytes.Repeat([]byte{0x5C}, int(units.Sector))
	_, done, err := a.ProgramSLCSector(0, 1, 0, 0, 0, pay)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Time(0).Add(units.TransferTime(units.Sector, 3200) + 75*time.Microsecond)
	if done != want {
		t.Errorf("partial program done = %v, want %v", done, want)
	}
	ppa := a.Geometry().PPAOf(Addr{Chip: 1, Block: 0})
	if !a.IsWritten(ppa) || !bytes.Equal(a.Payload(ppa), pay) {
		t.Error("payload not stored")
	}
	if a.Counters().PartialPrograms != 1 {
		t.Error("partial program not counted")
	}
}

func TestProgramSLCSectorOrder(t *testing.T) {
	a := newTestArray(t)
	if _, _, err := a.ProgramSLCSector(0, 0, 0, 0, 1, nil); err == nil {
		t.Error("out-of-order sector accepted")
	}
	if _, _, err := a.ProgramSLCSector(0, 0, 0, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.ProgramSLCSector(0, 0, 0, 0, 1, nil); err != nil {
		t.Errorf("in-order sector rejected: %v", err)
	}
	// Cross a page boundary in order.
	if _, _, err := a.ProgramSLCSector(0, 0, 0, 0, 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.ProgramSLCSector(0, 0, 0, 0, 3, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.ProgramSLCSector(0, 0, 0, 1, 0, nil); err != nil {
		t.Errorf("next page rejected: %v", err)
	}
}

func TestProgramSLCSectorRejections(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	if _, _, err := a.ProgramSLCSector(0, 0, g.FirstNormalBlock(), 0, 0, nil); err == nil {
		t.Error("partial program on TLC block accepted")
	}
	if _, _, err := a.ProgramSLCSector(0, 0, 0, g.SLCPagesPerBlock, 0, nil); err == nil {
		t.Error("page beyond SLC-mode capacity accepted")
	}
	if _, _, err := a.ProgramSLCSector(0, 0, 0, 0, 9, nil); err == nil {
		t.Error("sector out of page accepted")
	}
	if _, _, err := a.ProgramSLCSector(0, 0, 0, 0, 0, []byte{1}); err == nil {
		t.Error("short payload accepted")
	}
}

func TestReadPageTiming(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	blk := g.FirstNormalBlock()
	if _, _, err := a.ProgramPU(0, 0, blk, 0, nil); err != nil {
		t.Fatal(err)
	}
	start := sim.Time(time.Second) // long after the program completed
	done, err := a.ReadPage(start, 0, blk, 0, g.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	want := start.Add(32*time.Microsecond + units.TransferTime(g.PageSize, 3200))
	if done != want {
		t.Errorf("TLC read done = %v, want %v", done, want)
	}
	// SLC-mode block reads sense faster.
	done2, err := a.ReadPage(start, 1, 0, 0, units.Sector)
	if err != nil {
		t.Fatal(err)
	}
	want2 := start.Add(20*time.Microsecond + units.TransferTime(units.Sector, 3200))
	if done2 != want2 {
		t.Errorf("SLC read done = %v, want %v", done2, want2)
	}
}

func TestReadPageRejections(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	if _, err := a.ReadPage(0, 0, 0, g.SLCPagesPerBlock, units.Sector); err == nil {
		t.Error("page beyond SLC capacity accepted")
	}
	if _, err := a.ReadPage(0, 0, 0, 0, g.PageSize+1); err == nil {
		t.Error("oversized transfer accepted")
	}
	if _, err := a.ReadPage(0, 0, 99, 0, 0); err == nil {
		t.Error("bad block accepted")
	}
}

func TestChipQueueingSerialisesPrograms(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	blk := g.FirstNormalBlock()
	_, d1, err := a.ProgramPU(0, 0, blk, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, d2, err := a.ProgramPU(0, 0, blk, g.PagesPerPU(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Error("second program on same chip should complete later")
	}
	// tPROG dominates, so spacing should be at least one tPROG.
	if d2.Sub(d1) < 937*time.Microsecond {
		t.Errorf("programs not serialised: gap %v", d2.Sub(d1))
	}
}

func TestChipParallelismAcrossChips(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	blk := g.FirstNormalBlock()
	var latest sim.Time
	for chip := 0; chip < g.Chips(); chip++ {
		_, d, err := a.ProgramPU(0, chip, blk, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d > latest {
			latest = d
		}
	}
	// Four chips on two channels: channel transfers serialise two per
	// channel but programs overlap, so all four finish well before
	// 2 x tPROG.
	if latest > sim.Time(1500*time.Microsecond) {
		t.Errorf("parallel programs too slow: %v", latest)
	}
}

func TestChannelContention(t *testing.T) {
	g := testGeometry()
	g.ChannelMiBps = 10 // pathologically slow channel
	a, err := NewArray(g, DefaultLatencies(), nil)
	if err != nil {
		t.Fatal(err)
	}
	blk := g.FirstNormalBlock()
	// Chips 0 and 2 share channel 0; their transfers must serialise.
	_, d0, err := a.ProgramPU(0, 0, blk, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, d2, err := a.ProgramPU(0, 2, blk, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	xfer := units.TransferTime(g.ProgramUnit, 10)
	if d2.Sub(d0) < xfer/2 {
		t.Errorf("shared-channel transfers should serialise: d0=%v d2=%v xfer=%v", d0, d2, xfer)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	blk := g.FirstNormalBlock()
	pay := puPayload(g, 1)
	if _, _, err := a.ProgramPU(0, 0, blk, 0, pay); err != nil {
		t.Fatal(err)
	}
	ppa := g.PPAOf(Addr{Chip: 0, Block: blk})
	if !a.IsWritten(ppa) {
		t.Fatal("sector should be written")
	}
	done, err := a.Erase(0, 0, blk)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Error("erase must take time")
	}
	if a.IsWritten(ppa) || a.Payload(ppa) != nil {
		t.Error("erase must clear state")
	}
	if a.EraseCount(0, blk) != 1 {
		t.Errorf("EraseCount = %d", a.EraseCount(0, blk))
	}
	// Block is programmable from the start again.
	if _, _, err := a.ProgramPU(0, 0, blk, 0, nil); err != nil {
		t.Errorf("program after erase rejected: %v", err)
	}
}

func TestChargeMapRead(t *testing.T) {
	a := newTestArray(t)
	done, err := a.ChargeMapRead(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Time(0).Add(20*time.Microsecond + units.TransferTime(units.Sector, 3200))
	if done != want {
		t.Errorf("map read done = %v, want %v", done, want)
	}
	if _, err := a.ChargeMapRead(0, -1); err == nil {
		t.Error("bad chip accepted")
	}
}

func TestIsWrittenBounds(t *testing.T) {
	a := newTestArray(t)
	if a.IsWritten(PPA(-1)) {
		t.Error("invalid PPA reported written")
	}
	if a.IsWritten(PPA(a.Geometry().TotalSectors())) {
		t.Error("out-of-range PPA reported written")
	}
	if a.Payload(PPA(-1)) != nil {
		t.Error("invalid PPA has payload")
	}
}

func TestNextProgramSector(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	blk := g.FirstNormalBlock()
	if a.NextProgramSector(0, blk) != 0 {
		t.Error("fresh block should start at 0")
	}
	if _, _, err := a.ProgramPU(0, 0, blk, 0, nil); err != nil {
		t.Fatal(err)
	}
	want := g.PagesPerPU() * g.SectorsPerPage()
	if a.NextProgramSector(0, blk) != want {
		t.Errorf("NextProgramSector = %d, want %d", a.NextProgramSector(0, blk), want)
	}
}

func TestLatencyTableValidate(t *testing.T) {
	lat := DefaultLatencies()
	if err := lat.Validate(); err != nil {
		t.Fatal(err)
	}
	lat.QLC.Erase = 0
	if err := lat.Validate(); err == nil {
		t.Error("zero erase latency accepted")
	}
}

func TestDefaultLatenciesTable2(t *testing.T) {
	lat := DefaultLatencies()
	cases := []struct {
		media Media
		prog  time.Duration
		read  time.Duration
	}{
		{SLCMode, 75 * time.Microsecond, 20 * time.Microsecond},
		{TLC, 937500 * time.Nanosecond, 32 * time.Microsecond},
		{QLC, 6400 * time.Microsecond, 85 * time.Microsecond},
	}
	for _, c := range cases {
		l := lat.For(c.media)
		if l.Program != c.prog || l.Read != c.read {
			t.Errorf("%v: got prog=%v read=%v, want prog=%v read=%v",
				c.media, l.Program, l.Read, c.prog, c.read)
		}
	}
}

func TestLatencyUnknownMedia(t *testing.T) {
	// An unknown media value must be a descriptive construction-time error,
	// never an I/O-time panic.
	if l := DefaultLatencies().For(Media(42)); l != (Latency{}) {
		t.Errorf("For(unknown) = %+v, want zero Latency", l)
	}
	if _, err := DefaultLatencies().Entry(Media(42)); err == nil {
		t.Error("Entry(unknown) succeeded, want descriptive error")
	}
	g := testGeometry()
	g.NormalMedia = Media(42)
	if err := DefaultLatencies().ValidateFor(g); err == nil {
		t.Error("ValidateFor with unknown normal media succeeded, want error")
	}
	bad := DefaultLatencies()
	bad.TLC.Program = 0
	g = testGeometry()
	if err := bad.ValidateFor(g); err == nil && g.NormalMedia == TLC {
		t.Error("ValidateFor with zero TLC program latency succeeded, want error")
	}
}

func TestUnthrottledChannel(t *testing.T) {
	g := testGeometry()
	g.ChannelMiBps = 0 // FEMU-style: no channel model
	a, err := NewArray(g, DefaultLatencies(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, done, err := a.ProgramPU(0, 0, g.FirstNormalBlock(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done != sim.Time(937500*time.Nanosecond) {
		t.Errorf("unthrottled program should cost only tPROG, got %v", done)
	}
}

func TestArrayCountersAccumulate(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	blk := g.FirstNormalBlock()
	_, at, _ := a.ProgramPU(0, 0, blk, 0, nil)
	at, _ = a.ReadPage(at, 0, blk, 0, g.PageSize)
	_, at, _ = a.ProgramSLCSector(at, 0, 0, 0, 0, nil)
	_, _ = a.Erase(at, 0, blk)
	c := a.Counters()
	if c.PUPrograms != 1 || c.PageReads != 1 || c.PartialPrograms != 1 || c.Erases != 1 {
		t.Errorf("counters = %+v", c)
	}
	if c.BytesProgrammed != 96*units.KiB+units.Sector {
		t.Errorf("BytesProgrammed = %d", c.BytesProgrammed)
	}
	if c.BytesRead != g.PageSize {
		t.Errorf("BytesRead = %d", c.BytesRead)
	}
}

func TestGeometryStringMentionsRegions(t *testing.T) {
	s := testGeometry().String()
	if !strings.Contains(s, "SLC") {
		t.Errorf("geometry string should mention SLC region: %q", s)
	}
}

func TestChargeMapProgram(t *testing.T) {
	a := newTestArray(t)
	done, err := a.ChargeMapProgram(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// SLC program latency plus a 16 KiB transfer.
	want := sim.Time(0).Add(75*time.Microsecond + units.TransferTime(a.Geometry().PageSize, 3200))
	if done != want {
		t.Errorf("map program done = %v, want %v", done, want)
	}
	if a.Counters().MapPrograms != 1 {
		t.Error("map program not counted")
	}
	if _, err := a.ChargeMapProgram(0, -1); err == nil {
		t.Error("bad chip accepted")
	}
	// It is timing-only: no block state changed.
	if a.NextProgramSector(0, 0) != 0 {
		t.Error("map program touched block state")
	}
}

func TestCacheRegisterPipeline(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	blk := g.FirstNormalBlock()
	// Program 1 starts at ~xfer1; program 2's transfer may overlap
	// program 1 (cache register), so prog2 starts right when prog1 ends:
	// the gap between completions is exactly one tPROG.
	_, d1, err := a.ProgramPU(0, 0, blk, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel2, d2, err := a.ProgramPU(0, 0, blk, g.PagesPerPU(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if gap := d2.Sub(d1); gap != 937500*time.Nanosecond {
		t.Errorf("completion gap = %v, want exactly tPROG (pipelined transfer)", gap)
	}
	// The second transfer finished before the first program completed.
	if rel2 >= d1 {
		t.Errorf("transfer 2 (%v) did not overlap program 1 (ends %v)", rel2, d1)
	}
}

// paperGeometry and qlcGeometry are the media of config.Paper() and
// config.QLC() (this package cannot import config).
func paperGeometry() Geometry {
	g := testGeometry()
	g.BlocksPerChip, g.PagesPerBlock, g.SLCPagesPerBlock, g.SLCBlocks = 108, 252, 84, 10
	return g
}

func qlcGeometry() Geometry {
	g := paperGeometry()
	g.NormalMedia, g.ProgramUnit, g.PagesPerBlock, g.SLCPagesPerBlock = QLC, 64*units.KiB, 256, 64
	return g
}

// TestStripeAddrMatchesClosedForm checks every offset of a superblock
// against the striping rule's closed form — program unit k on chip k mod
// chips, unit row k div chips — which is written out here and nowhere else.
func TestStripeAddrMatchesClosedForm(t *testing.T) {
	for name, g := range map[string]Geometry{"small": testGeometry(), "paper": paperGeometry(), "qlc": qlcGeometry()} {
		a, err := NewArray(g, DefaultLatencies(), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		chips, pu, spp := int64(g.Chips()), g.ProgramUnit/units.Sector, int64(g.SectorsPerPage())
		sb := g.NormalBlocks() - 1
		for off := int64(0); off < g.SuperblockBytes()/units.Sector; off++ {
			k, rem := off/pu, off%pu
			want := Addr{
				Chip:   int(k % chips),
				Block:  g.FirstNormalBlock() + sb,
				Page:   int((k/chips)*int64(g.PagesPerPU()) + rem/spp),
				Sector: int(rem % spp),
			}
			if got := a.StripeAddr(sb, off); got != want {
				t.Fatalf("%s: offset %d stripes to %+v, want %+v", name, off, got, want)
			}
		}
	}
}

// failNextProgram is a fault injector whose next program verdict is FAIL.
type failNextProgram struct{ armed bool }

func (f *failNextProgram) ProgramFails(Media, int, int, int64) bool {
	fail := f.armed
	f.armed = false
	return fail
}
func (f *failNextProgram) EraseFails(Media, int, int, int64) bool       { return false }
func (f *failNextProgram) ReadFault(Media, int, int, int64) (int, bool) { return 0, false }

// TestProgramFrontDoors runs the three program front doors through the one
// operation behind them: each must refuse an out-of-order target and a
// malformed payload before charging anything, stay untouched by a torn or
// failed program, and on success move the append point, store the payload,
// count itself and record one span.
func TestProgramFrontDoors(t *testing.T) {
	g := testGeometry()
	spp := g.SectorsPerPage()
	normal := g.FirstNormalBlock()
	doors := []struct {
		name   string
		block  int
		n      int // sectors per operation
		tProg  time.Duration
		landed Counters // counters after one program, BytesProgrammed aside
		// program issues the door's idx-th operation in block order.
		program func(a *Array, at sim.Time, idx int, sectors [][]byte) (sim.Time, sim.Time, error)
	}{
		{"ProgramPU", normal, g.PagesPerPU() * spp, 937500 * time.Nanosecond,
			Counters{PUPrograms: 1},
			func(a *Array, at sim.Time, idx int, sectors [][]byte) (sim.Time, sim.Time, error) {
				return a.ProgramPU(at, 1, normal, idx*g.PagesPerPU(), sectors)
			}},
		{"ProgramSLCSector", 0, 1, 75 * time.Microsecond,
			Counters{PartialPrograms: 1},
			func(a *Array, at sim.Time, idx int, sectors [][]byte) (sim.Time, sim.Time, error) {
				var p []byte
				if len(sectors) > 0 {
					p = sectors[0]
				}
				return a.ProgramSLCSector(at, 1, 0, idx/spp, idx%spp, p)
			}},
		{"ProgramSLCPage", 0, spp, 75 * time.Microsecond,
			Counters{PageProgramsSLC: 1},
			func(a *Array, at sim.Time, idx int, sectors [][]byte) (sim.Time, sim.Time, error) {
				return a.ProgramSLCPage(at, 1, 0, idx, sectors)
			}},
	}
	payload := func(n int, b byte) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = bytes.Repeat([]byte{b}, int(units.Sector))
		}
		return out
	}
	for _, d := range doors {
		t.Run(d.name, func(t *testing.T) {
			a := newTestArray(t)
			rec := obs.NewRecorder(16)
			a.SetRecorder(rec)
			inj := &failNextProgram{}
			a.SetFaultInjector(inj)
			bytesN := int64(d.n) * units.Sector
			// untouched asserts that a refused, torn or failed program stored
			// nothing and left the append point and the counters alone
			// (a failed program's tPROG is checked by the caller).
			untouched := func(what string, wantNext int, before Counters) {
				t.Helper()
				if got := a.NextProgramSector(1, d.block); got != wantNext {
					t.Errorf("%s: append point %d, want %d", what, got, wantNext)
				}
				if a.IsWritten(g.PPAOf(Addr{Chip: 1, Block: d.block}) + PPA(wantNext)) {
					t.Errorf("%s: sector %d stored", what, wantNext)
				}
				if c := a.Counters(); c != before {
					t.Errorf("%s: counters %+v, want %+v", what, c, before)
				}
			}

			// Refusals charge nothing: the chip stays idle.
			if _, _, err := d.program(a, 0, 1, nil); err == nil {
				t.Error("out-of-order target accepted")
			}
			if d.n > 1 { // a single-sector door has no count to get wrong
				if _, _, err := d.program(a, 0, 0, payload(d.n-1, 1)); err == nil {
					t.Error("wrong payload count accepted")
				}
			}
			short := payload(d.n, 1)
			short[d.n-1] = []byte{1}
			if _, _, err := d.program(a, 0, 0, short); err == nil {
				t.Error("wrong payload size accepted")
			}
			untouched("refusals", 0, Counters{})
			if a.chips[1].Ops() != 0 || rec.Recorded() != 0 {
				t.Errorf("refusals charged %d chip ops, recorded %d spans", a.chips[1].Ops(), rec.Recorded())
			}

			// Success: release when the data is in the register, done one
			// tPROG later; counter, bytes, append point, payload and span.
			pay := payload(d.n, 0xA5)
			release, done, err := d.program(a, 0, 0, pay)
			if err != nil {
				t.Fatal(err)
			}
			if want := sim.Time(0).Add(units.TransferTime(bytesN, g.ChannelMiBps)); release != want {
				t.Errorf("release = %v, want %v", release, want)
			}
			if want := release.Add(d.tProg); done != want {
				t.Errorf("done = %v, want %v", done, want)
			}
			landed := d.landed
			landed.BytesProgrammed = bytesN
			if c := a.Counters(); c != landed {
				t.Errorf("counters after one program = %+v, want %+v", c, landed)
			}
			if got := a.NextProgramSector(1, d.block); got != d.n {
				t.Errorf("append point %d after one program, want %d", got, d.n)
			}
			base := g.PPAOf(Addr{Chip: 1, Block: d.block})
			for i := 0; i < d.n; i++ {
				if !a.IsWritten(base+PPA(i)) || !bytes.Equal(a.Payload(base+PPA(i)), pay[i]) {
					t.Fatalf("sector %d not stored", i)
				}
			}
			ev := rec.Events()
			if len(ev) != 1 || ev[0].Stage != obs.StageNANDProgram || ev[0].Begin != 0 || ev[0].End != done || ev[0].N != bytesN || ev[0].Actor != 1 {
				t.Errorf("recorded spans = %v", ev)
			}

			// Injected program fail: full tPROG charged, nothing stored.
			inj.armed = true
			_, failed, err := d.program(a, done, 1, payload(d.n, 0x5A))
			if !errors.Is(err, ErrProgramFail) {
				t.Fatalf("injected fail: %v", err)
			}
			if want := done.Add(units.TransferTime(bytesN, g.ChannelMiBps) + d.tProg); failed != want {
				t.Errorf("failed program done = %v, want %v (tPROG charged)", failed, want)
			}
			untouched("program fail", d.n, landed)

			// Torn by an armed power cut: nothing stored, no fault verdict
			// consumed, and the array is dead.
			inj.armed = true
			a.ArmPowerCut(failed.Add(1))
			if _, _, err := d.program(a, failed, 1, payload(d.n, 0x5A)); !errors.Is(err, ErrPowerLoss) {
				t.Fatalf("torn program: %v", err)
			}
			untouched("torn program", d.n, landed)
			if !inj.armed {
				t.Error("torn program consumed a fault verdict")
			}
			if !a.PowerLost() {
				t.Error("array alive after a torn program")
			}
		})
	}
}
