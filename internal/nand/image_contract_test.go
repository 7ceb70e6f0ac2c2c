package nand

import (
	"bytes"
	"errors"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// oddGeometry spans a sector count that is not a multiple of chunkSectors,
// so its last chunk is half inside the device.
func oddGeometry() Geometry {
	g := testGeometry()
	g.Channels, g.ChipsPerChannel = 1, 3
	g.BlocksPerChip, g.SLCBlocks, g.MapBlocks = 9, 3, 1
	g.PagesPerBlock, g.SLCPagesPerBlock = 12, 4
	g.ProgramUnit = 48 * units.KiB
	return g
}

// smallQLCGeometry has four-page program units and no map region.
func smallQLCGeometry() Geometry {
	g := testGeometry()
	g.Channels, g.ChipsPerChannel = 2, 1
	g.BlocksPerChip, g.SLCBlocks, g.MapBlocks = 10, 2, 0
	g.PagesPerBlock, g.SLCPagesPerBlock = 16, 4
	g.NormalMedia, g.ProgramUnit = QLC, 64*units.KiB
	return g
}

// TestImageRoundTripMatchesDenseModel: whatever the seeded program/partial/
// erase/stamp/copy/torn stream leaves on the media, saving and loading it
// gives the same media — compared with the source array and with the dense
// reference — and the same bytes when saved again.
func TestImageRoundTripMatchesDenseModel(t *testing.T) {
	for name, g := range map[string]Geometry{"small": testGeometry(), "odd": oddGeometry(), "qlc": smallQLCGeometry()} {
		if name == "odd" && g.TotalSectors()%chunkSectors == 0 {
			t.Fatal("the odd geometry ends on a chunk boundary")
		}
		for _, seed := range []int64{3, 0xBEEF} {
			a, err := NewArray(g, DefaultLatencies(), sim.NewEngine())
			if err != nil {
				t.Fatal(err)
			}
			ref := newDenseMedia(g.TotalSectors())
			path := filepath.Join(t.TempDir(), "stream.img")
			driveMediaStream(t, a, ref, seed, 1200, func(step int) {
				if step%300 != 299 {
					return
				}
				if err := a.SaveImage(path); err != nil {
					t.Fatalf("%s seed %d step %d: %v", name, seed, step, err)
				}
				b, err := LoadArray(path, DefaultLatencies())
				if err != nil {
					t.Fatalf("%s seed %d step %d: %v", name, seed, step, err)
				}
				if saved, _ := os.ReadFile(path); !bytes.Equal(imageBytes(t, b), saved) {
					t.Fatalf("%s seed %d step %d: save, load, save is not byte-identical", name, seed, step)
				}
				ref.check(t, b, step)
				sameMedia(t, b, a)
				ref.seq++ // sameMedia drew a sequence number from a
			})
		}
	}
}

// refusal is one hand-corrupted image and the refusal it must get.
type refusal struct {
	name  string
	image func(t *testing.T) []byte
	class error
	says  string // part of the message that names the rule
}

// TestLoadArrayRefusals holds one image per rule of the loader, each broken
// in exactly that rule with every checksum recomputed, and checks that the
// loader names the rule, classifies it, and never panics.
func TestLoadArrayRefusals(t *testing.T) {
	// Every row edits the image of a fixture.
	v2on := func(base func(*testing.T) *Array, edit func(t *testing.T, p *v2Parts) []byte) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			p, ok := parseV2(imageBytes(t, base(t)))
			if !ok {
				t.Fatal("the saved image does not parse")
			}
			return edit(t, p)
		}
	}
	v2 := func(edit func(t *testing.T, p *v2Parts) []byte) func(*testing.T) []byte {
		return v2on(imageFixtureArray, edit)
	}
	flip := func(b []byte, at int) []byte { b[at] ^= 0x10; return b }
	// stampedBit returns a stamped (or unstamped) sector of the first chunk.
	sectorWith := func(t *testing.T, p *v2Parts, stamped bool) (recAt, i int) {
		recAt = p.chunkAt(0)
		w := wordAt(p.body[secChunks], recAt+16).get()
		if !stamped {
			w = ^w
		}
		if w == 0 {
			t.Fatal("the fixture's first chunk has no such sector")
		}
		return recAt, bits.TrailingZeros64(w)
	}
	lpaAt := func(recAt, i int) int { return recAt + chunkLPAAt + 8*i }
	seqAt := func(recAt, i int) int { return recAt + chunkSeqAt + 8*i }
	// halfChunkArray fills the odd geometry's last block, so the last chunk
	// is resident and half of it lies beyond the device.
	halfChunkArray := func(t *testing.T) *Array {
		g := oddGeometry()
		a, err := NewArray(g, DefaultLatencies(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for page := 0; page < g.PagesPerBlock; page += g.PagesPerPU() {
			if _, _, err := a.ProgramPU(0, g.Chips()-1, g.BlocksPerChip-1, page, nil); err != nil {
				t.Fatal(err)
			}
		}
		return a
	}

	const noMagic = "no CZNANDIM magic (images written before format v2 are no longer readable)"
	rows := []refusal{
		{"bad magic", v2(func(t *testing.T, p *v2Parts) []byte { return flip(p.bytes(), 0) }), ErrImageFormat, noMagic},
		{"unknown version", v2(func(t *testing.T, p *v2Parts) []byte { p.head[len(imageMagic)] = 3; return p.bytes() }), ErrImageFormat, "version 3"},
		{"empty file", func(*testing.T) []byte { return nil }, ErrImageFormat, noMagic},
		{"truncated header", v2(func(t *testing.T, p *v2Parts) []byte { return p.bytes()[:100] }), ErrImageCorrupt, "shorter than"},
		{"header checksum", v2(func(t *testing.T, p *v2Parts) []byte { return flip(p.bytes(), 20) }), ErrImageCorrupt, "header, offset 140: checksum"},
		{"invalid geometry", v2(func(t *testing.T, p *v2Parts) []byte {
			g := p.geometry()
			g.Channels = 0
			p.setGeometry(g)
			return p.bytes()
		}), ErrImageCorrupt, "Channels must be positive"},
		{"oversized geometry", v2(func(t *testing.T, p *v2Parts) []byte {
			g := p.geometry()
			g.PagesPerBlock = 3 << 29
			p.setGeometry(g)
			return p.bytes()
		}), ErrImageCorrupt, "spans more than"},
		{"oversized program unit", v2(func(t *testing.T, p *v2Parts) []byte {
			g := p.geometry()
			g.PagesPerBlock, g.ProgramUnit = 1<<14, 1<<14*g.PageSize
			p.setGeometry(g)
			return p.bytes()
		}), ErrImageCorrupt, "program unit"},
		{"trailing bytes", v2(func(t *testing.T, p *v2Parts) []byte { p.tail = []byte{0}; return p.bytes() }), ErrImageCorrupt, "the file has"},
		{"truncated file", v2(func(t *testing.T, p *v2Parts) []byte { b := p.bytes(); return b[:len(b)-1] }), ErrImageCorrupt, "does not fit"},
		{"inflated section length", v2(func(t *testing.T, p *v2Parts) []byte {
			wordAt(p.head, headerLensAt+8*secChunks).set(1 << 60)
			return p.bytes()
		}), ErrImageCorrupt, "does not fit"},
		{"negative section length", v2(func(t *testing.T, p *v2Parts) []byte {
			wordAt(p.head, headerLensAt+8*secJournal).set(1 << 63)
			return p.bytes()
		}), ErrImageCorrupt, "does not fit"},
		{"block table shape", v2(func(t *testing.T, p *v2Parts) []byte {
			p.body[secBlocks] = p.body[secBlocks][blockRecordLen:]
			return p.fit().bytes()
		}), ErrImageCorrupt, "block table of"},
		{"journal not whole records", v2(func(t *testing.T, p *v2Parts) []byte {
			p.body[secJournal] = append(p.body[secJournal], 0)
			return p.fit().bytes()
		}), ErrImageCorrupt, "whole records"},
		{"counters length", v2(func(t *testing.T, p *v2Parts) []byte {
			p.body[secCounters] = append(p.body[secCounters], make([]byte, 8)...)
			return p.fit().bytes()
		}), ErrImageCorrupt, "counters section of"},
		{"chunk directory without a count", v2(func(t *testing.T, p *v2Parts) []byte {
			p.body[secChunks] = p.body[secChunks][:4]
			return p.fit().bytes()
		}), ErrImageCorrupt, "has no count"},
		{"length prefix", v2(func(t *testing.T, p *v2Parts) []byte { p.prefix[secJournal]++; return p.bytes() }), ErrImageCorrupt, "journal section, offset"},
		{"section checksum", v2(func(t *testing.T, p *v2Parts) []byte { b := p.bytes(); return flip(b, len(b)-100) }), ErrImageCorrupt, "chunk-directory section"},
		{"journal count", v2(func(t *testing.T, p *v2Parts) []byte {
			w := wordAt(p.body[secJournal], 0)
			w.set(w.get() + 1)
			return p.bytes()
		}), ErrImageCorrupt, "journal counts"},
		{"journal kind", v2(func(t *testing.T, p *v2Parts) []byte { wordAt(p.body[secJournal], 8).set(9); return p.bytes() }), ErrImageCorrupt, "unknown kind 9"},
		{"journal record from the future", v2(func(t *testing.T, p *v2Parts) []byte {
			wordAt(p.body[secJournal], 8+6*8).set(1 << 40)
			return p.bytes()
		}), ErrImageCorrupt, "journal record 0: sequence"},
		{"negative counter", v2(func(t *testing.T, p *v2Parts) []byte {
			wordAt(p.body[secCounters], 0).set(^uint64(0))
			return p.bytes()
		}), ErrImageCorrupt, "negative activity"},
		{"more erases than wear", v2(func(t *testing.T, p *v2Parts) []byte { wordAt(p.body[secCounters], 5*8).set(1000); return p.bytes() }), ErrImageCorrupt, "1000 erases counted"},
		{"negative erase count", v2(func(t *testing.T, p *v2Parts) []byte { wordAt(p.body[secBlocks], 8).set(^uint64(0)); return p.bytes() }), ErrImageCorrupt, "negative erase count"},
		{"append point outside the block", v2(func(t *testing.T, p *v2Parts) []byte { wordAt(p.body[secBlocks], 0).set(1 << 20); return p.bytes() }), ErrImageCorrupt, "outside the block"},
		{"inflated chunk count", v2(func(t *testing.T, p *v2Parts) []byte { wordAt(p.body[secChunks], 0).set(1 << 40); return p.bytes() }), ErrImageCorrupt, "directory counts"},
		{"chunk indices not ascending", v2(func(t *testing.T, p *v2Parts) []byte {
			body := p.body[secChunks]
			wordAt(body, p.chunkAt(1)).set(wordAt(body, p.chunkAt(0)).get())
			return p.bytes()
		}), ErrImageCorrupt, "want ascending"},
		{"chunk index out of range", v2(func(t *testing.T, p *v2Parts) []byte {
			n := int(wordAt(p.body[secChunks], 0).get())
			wordAt(p.body[secChunks], p.chunkAt(n-1)).set(1 << 30)
			return p.bytes()
		}), ErrImageCorrupt, "want ascending below"},
		{"empty chunk", v2(func(t *testing.T, p *v2Parts) []byte {
			rec := make([]byte, chunkRecordLen)
			wordAt(rec, 0).set(uint64(p.geometry().TotalSectors()>>chunkShift) - 1)
			p.body[secChunks] = append(p.body[secChunks], rec...)
			n := wordAt(p.body[secChunks], 0)
			n.set(n.get() + 1)
			return p.fit().bytes()
		}), ErrImageCorrupt, "is empty"},
		{"payload on an unwritten sector", v2(payloadOnUnwritten), ErrImageCorrupt, "payload on unwritten sector"},
		{"payloads overrun the section", v2(func(t *testing.T, p *v2Parts) []byte {
			body := p.body[secChunks]
			at := p.chunkAt(int(wordAt(body, 0).get()) - 1)
			wordAt(body, at+24).set(wordAt(body, at+8).get()) // every programmed sector claims a payload
			return p.bytes()
		}), ErrImageCorrupt, "payload sectors"},
		{"bytes no record claims", v2(func(t *testing.T, p *v2Parts) []byte {
			p.body[secChunks] = append(p.body[secChunks], make([]byte, 8)...)
			return p.fit().bytes()
		}), ErrImageCorrupt, "no record claims"},
		{"state beyond the last sector", v2on(halfChunkArray, func(t *testing.T, p *v2Parts) []byte {
			body := p.body[secChunks]
			at := p.chunkAt(int(wordAt(body, 0).get()) - 1)
			w := wordAt(body, at+8)
			w.set(w.get() | 1<<63)
			return p.bytes()
		}), ErrImageCorrupt, "beyond the last sector"},
		{"stamp flag without an address", v2(func(t *testing.T, p *v2Parts) []byte {
			at, i := sectorWith(t, p, true)
			wordAt(p.body[secChunks], lpaAt(at, i)).set(0)
			return p.bytes()
		}), ErrImageCorrupt, "is not a logical address"},
		{"stamped address past 32 bits", v2(func(t *testing.T, p *v2Parts) []byte {
			at, i := sectorWith(t, p, true)
			wordAt(p.body[secChunks], lpaAt(at, i)).set(1 << 32) // LPA 2^32-1, stored plus one
			return p.bytes()
		}), ErrImageCorrupt, "exceeds the 32-bit bound"},
		{"address without a stamp flag", v2(func(t *testing.T, p *v2Parts) []byte {
			at, i := sectorWith(t, p, false)
			wordAt(p.body[secChunks], lpaAt(at, i)).set(6)
			return p.bytes()
		}), ErrImageCorrupt, "without a stamp flag"},
		{"stamp from the future", v2(func(t *testing.T, p *v2Parts) []byte {
			at, i := sectorWith(t, p, true)
			wordAt(p.body[secChunks], seqAt(at, i)).set(1 << 40)
			return p.bytes()
		}), ErrImageCorrupt, "sequence in [1,"},
		{"programmed beyond the append point", v2(func(t *testing.T, p *v2Parts) []byte {
			w := wordAt(p.body[secBlocks], blockRecordLen) // chip 0, SLC block 1: three partial programs
			w.set(w.get() - 1)
			return p.bytes()
		}), ErrImageCorrupt, "at or beyond the append point 2 is programmed"},
		{"unprogrammed below the append point", v2(func(t *testing.T, p *v2Parts) []byte {
			w := wordAt(p.body[secBlocks], blockRecordLen)
			w.set(w.get() + 1)
			return p.bytes()
		}), ErrImageCorrupt, "below the append point 4 is not programmed"},
	}
	seen := map[string]bool{}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.img")
			if err := os.WriteFile(path, row.image(t), 0o644); err != nil {
				t.Fatal(err)
			}
			a, err := LoadArray(path, DefaultLatencies())
			if err == nil || a != nil {
				t.Fatal("the image loaded")
			}
			other := ErrImageFormat
			if row.class == ErrImageFormat {
				other = ErrImageCorrupt
			}
			if !errors.Is(err, row.class) || errors.Is(err, other) {
				t.Fatalf("got %v, want class %v", err, row.class)
			}
			if !strings.Contains(err.Error(), row.says) || !strings.Contains(err.Error(), path) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("got %q, want one line naming the file and %q", err, row.says)
			}
			// Each row must reach a rule of its own.
			if seen[row.says] && row.says != "does not fit" && row.says != noMagic {
				t.Fatalf("%q is claimed by two rows", row.says)
			}
			seen[row.says] = true
		})
	}
}
