package nand

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// refProgram and refStamp are the per-sector program and OOB stamp the run
// forms replaced: one touch, one flag bit and one sequence number per
// sector. TestProgramRunMatchesPerSector holds programRun and StampOOB to
// them.
func (a *Array) refProgram(idx int64, src []byte) {
	c := a.touch(idx)
	i := idx & chunkMask
	c.written |= 1 << uint(i)
	if s := a.setOf(idx >> chunkShift); s != nil && s[i] != 0 {
		a.slabs.put(s[i])
		s[i] = 0
	}
	if src != nil {
		h := a.slabs.get()
		copy(a.slabs.buf(h), src)
		a.storeSet(idx >> chunkShift)[i] = h
	}
}

func (a *Array) refStamp(idx, lpa int64) {
	a.seq++
	a.stamp(idx, lpa, a.seq)
}

// TestProgramRunMatchesPerSector programs seeded runs — whole program units
// and longer runs, starting mid-chunk and crossing chunk boundaries, with
// no payload, nil payloads and stored payloads mixed — and stamps them, on
// an array that never stores a payload, on a fresh one and on one whose
// slabs were already issued and released, against the same runs landed one
// sector at a time. Erases between them recycle chunks and slabs. Both
// arrays must agree sector by sector and save the same image.
func TestProgramRunMatchesPerSector(t *testing.T) {
	g := testGeometry()
	unit := g.ProgramUnit / units.Sector
	for _, tc := range []struct {
		name     string
		payloads bool // runs may store payloads
		issued   bool // slabs issued and released before the first run
	}{
		{"timing-only", false, false},
		{"fresh", true, false},
		{"slab-issued", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs, sectors := newTestArray(t), newTestArray(t)
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			payload := func() []byte { return bytes.Repeat([]byte{byte(1 + rng.Intn(255))}, int(units.Sector)) }
			if tc.issued {
				for _, a := range []*Array{runs, sectors} {
					for i := int64(0); i < 3*chunkSectors; i++ {
						a.refProgram(i, payload())
					}
					a.eraseSectors(0, 3*chunkSectors)
				}
			}
			var midChunk, crossing int
			for step := 0; step < 600; step++ {
				switch op := rng.Intn(10); {
				case op < 7: // a program unit, or a run of up to three
					n := unit
					if op == 6 {
						n = 1 + rng.Int63n(3*unit)
					}
					idx := rng.Int63n(runs.nsectors - n + 1)
					if idx&chunkMask != 0 {
						midChunk++
					}
					if idx>>chunkShift != (idx+n-1)>>chunkShift {
						crossing++
					}
					var src [][]byte
					if rng.Intn(3) > 0 {
						src = make([][]byte, n)
						for i := range src {
							if tc.payloads && rng.Intn(2) == 0 {
								src[i] = payload()
							}
						}
					}
					runs.programRun(idx, n, src)
					for i := int64(0); i < n; i++ {
						var s []byte
						if src != nil {
							s = src[i]
						}
						sectors.refProgram(idx+i, s)
					}
					if rng.Intn(4) > 0 {
						lpa := rng.Int63n(1 << 20)
						runs.StampOOB(PPA(idx), lpa, n)
						for i := int64(0); i < n; i++ {
							sectors.refStamp(idx+i, lpa+i)
						}
					}
				case op < 9:
					chip, block := rng.Intn(g.Chips()), rng.Intn(g.BlocksPerChip)
					if _, err := runs.Erase(0, chip, block); err != nil {
						t.Fatal(err)
					}
					if _, err := sectors.Erase(0, chip, block); err != nil {
						t.Fatal(err)
					}
				default: // a lone stamp, the staging region's run of one
					idx, lpa := rng.Int63n(runs.nsectors), rng.Int63n(1<<20)
					runs.StampOOB(PPA(idx), lpa, 1)
					sectors.refStamp(idx, lpa)
				}
				sameMedia(t, runs, sectors)
				if step%100 == 0 && !bytes.Equal(imageBytes(t, runs), imageBytes(t, sectors)) {
					t.Fatalf("step %d: the run form saves a different image than the per-sector form", step)
				}
			}
			if !bytes.Equal(imageBytes(t, runs), imageBytes(t, sectors)) {
				t.Fatal("the run form saves a different image than the per-sector form")
			}
			if midChunk == 0 || crossing == 0 {
				t.Fatalf("runs starting mid-chunk %d, crossing a chunk boundary %d: want both", midChunk, crossing)
			}
			if issued := runs.slabs.issued != 0; issued != tc.payloads {
				t.Fatalf("slabs issued = %v, want %v", issued, tc.payloads)
			}
		})
	}
}

// BenchmarkProgramPU is the media layer's share of a direct write: one
// config.Paper() program unit per op through ProgramPU, then its OOB stamps,
// striped over the chips like a superblock. timing programs nil payloads, as
// a prefill does; stamped stores a 4 KiB payload per sector. Each chip's
// block is erased after rows units, which hands its chunks and slabs back,
// so once the first erase cycle has run the loop allocates nothing.
func BenchmarkProgramPU(b *testing.B) {
	g := paperGeometry()
	unit := g.ProgramUnit / units.Sector
	chips, block, ppu := g.Chips(), g.FirstNormalBlock(), g.PagesPerPU()
	const rows = 8
	for _, stamped := range []bool{false, true} {
		name := "timing"
		if stamped {
			name = "stamped"
		}
		b.Run(name, func(b *testing.B) {
			a, err := NewArray(g, DefaultLatencies(), nil)
			if err != nil {
				b.Fatal(err)
			}
			sectors := make([][]byte, unit)
			if stamped {
				buf := bytes.Repeat([]byte{0xA5}, int(g.ProgramUnit))
				for i := range sectors {
					sectors[i] = buf[int64(i)*units.Sector : int64(i+1)*units.Sector]
				}
			}
			var at sim.Time
			k := 0
			step := func() {
				chip, row := k%chips, k/chips%rows
				if row == 0 && a.NextProgramSector(chip, block) != 0 {
					if _, err := a.Erase(at, chip, block); err != nil {
						b.Fatal(err)
					}
				}
				_, done, err := a.ProgramPU(at, chip, block, row*ppu, sectors)
				if err != nil {
					b.Fatal(err)
				}
				a.StampOOB(a.PPAOf(Addr{Chip: chip, Block: block, Page: row * ppu}), int64(k)*unit, unit)
				at, k = done, k+1
			}
			for range 2 * chips * rows {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*unit), "ns/sector")
		})
	}
}
