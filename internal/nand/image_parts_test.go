package nand

import (
	"hash/crc32"
	"math/bits"

	"github.com/conzone/conzone/internal/units"
)

// v2Parts is a v2 image taken apart so a test can break one rule at a time
// and put the file back together with checksums that hold — otherwise every
// hand-made corruption would be refused for its checksum and no contract
// rule would ever be reached. It is a second, independent reading of the
// layout in DESIGN §13.
type v2Parts struct {
	head   []byte                // magic, version, geometry, section lengths: the header without its checksum
	prefix [imageSections]uint64 // each section's own length prefix
	body   [imageSections][]byte // section bodies
	tail   []byte                // whatever follows the last section
}

// parseV2 splits b by the lengths its header states; false when b has no v2
// magic or the stated sections do not fit in it.
func parseV2(b []byte) (*v2Parts, bool) {
	if len(b) < imageHeaderLen || string(b[:len(imageMagic)]) != imageMagic {
		return nil, false
	}
	p := &v2Parts{head: append([]byte(nil), b[:imageHeaderLen-4]...)}
	at := uint64(imageHeaderLen)
	for i := range p.body {
		n := le.Uint64(p.head[headerLensAt+8*i:])
		if n > uint64(len(b)) || at+sectionOverhead+n > uint64(len(b)) {
			return nil, false
		}
		p.prefix[i] = le.Uint64(b[at:])
		p.body[i] = append([]byte(nil), b[at+8:at+8+n]...)
		at += sectionOverhead + n
	}
	p.tail = append([]byte(nil), b[at:]...)
	return p, true
}

// bytes reassembles the image with fresh checksums. The header's section
// lengths and the prefixes are written as they stand, not recomputed.
func (p *v2Parts) bytes() []byte {
	sum := func(b []byte, from int) []byte { return le.AppendUint32(b, crc32.Checksum(b[from:], castagnoli)) }
	out := sum(append([]byte(nil), p.head...), 0)
	for i, body := range p.body {
		from := len(out)
		out = sum(append(le.AppendUint64(out, p.prefix[i]), body...), from)
	}
	return append(out, p.tail...)
}

// fit makes the header's lengths and the prefixes agree with the bodies.
func (p *v2Parts) fit() *v2Parts {
	for i, body := range p.body {
		p.prefix[i] = uint64(len(body))
		le.PutUint64(p.head[headerLensAt+8*i:], uint64(len(body)))
	}
	return p
}

func (p *v2Parts) geometry() Geometry { return getGeometry(p.head[headerGeometryAt:]) }

func (p *v2Parts) setGeometry(g Geometry) { putGeometry(p.head[headerGeometryAt:], g) }

// chunkAt returns the offset in the chunk directory's body of the k-th chunk
// record.
func (p *v2Parts) chunkAt(k int) int {
	body, at := p.body[secChunks], 8
	for ; k > 0; k-- {
		at += chunkRecordLen + bits.OnesCount64(le.Uint64(body[at+24:]))*int(units.Sector)
	}
	return at
}

// word returns the i-th 64-bit word of b as a settable reference.
type word []byte

func (w word) get() uint64          { return le.Uint64(w) }
func (w word) set(v uint64)         { le.PutUint64(w, v) }
func wordAt(b []byte, off int) word { return word(b[off : off+8]) }
