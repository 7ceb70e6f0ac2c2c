package nand

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/conzone/conzone/internal/units"
)

// The v1 image: one gob message holding the dense per-sector form — a flag
// and an OOB pair for every sector of the geometry, -1 marking a never-
// stamped sector, payloads in a map. Nothing writes it any more; this
// decode-only path keeps images saved before v2 loadable (testdata/
// v1_parent.img pins it), and is the only place encoding/gob is reachable
// from. imageFile exists as gob's decode target.

type imageBlock struct {
	NextSector int
	EraseCount int64
}

type imageFile struct {
	Version  int
	Geo      Geometry
	Blocks   [][]imageBlock
	Written  []bool
	Payload  map[int64][]byte // only sectors with recorded payload
	OOBLPA   []int64
	OOBSeq   []int64
	Seq      int64
	Journal  []MetaRecord
	Counters Counters
}

// checkGobFraming walks the length prefixes of the gob messages in r without
// reading their bodies. gob allocates a message's declared length (up to
// 10 MiB at a time) before it has the bytes; a prefix that overruns the file
// is refused here, so decoding allocates in proportion to what is there.
func checkGobFraming(r io.ReaderAt, size int64) error {
	var b [9]byte
	for off := int64(0); off < size; {
		n, _ := r.ReadAt(b[:], off)
		// gob's unsigned integer: one byte below 128, else the negated count
		// of big-endian bytes that follow.
		v, used := uint64(b[0]), 1
		if b[0] > 0x7f {
			used = 1 + 256 - int(b[0])
			if used > n {
				return fmt.Errorf("message length at offset %d is cut short or wider than 64 bits", off)
			}
			v = 0
			for _, d := range b[1:used] {
				v = v<<8 | uint64(d)
			}
		}
		if v == 0 || v > uint64(size-off-int64(used)) {
			return fmt.Errorf("message of %d bytes at offset %d overruns the %d-byte file", v, off, size)
		}
		off += int64(used) + int64(v)
	}
	return nil
}

// readImageV1 loads a v1 image. A v1 file has no magic, so anything gob
// cannot decode into imageFile is "not an image"; what decodes is held to
// the same media contract as v2, with every size checked against the
// decoded slices before the array is built.
func readImageV1(r io.ReaderAt, size int64, lat LatencyTable) (*Array, error) {
	var img imageFile
	err := checkGobFraming(r, size)
	if err == nil {
		err = gob.NewDecoder(bufio.NewReaderSize(io.NewSectionReader(r, 0, size), imageBufSize)).Decode(&img)
	}
	if err != nil {
		return nil, fmt.Errorf("no v2 magic and not a v1 image (%v): %w", err, ErrImageFormat)
	}
	if img.Version != 1 {
		return nil, fmt.Errorf("v1-layout image claims version %d: %w", img.Version, ErrImageFormat)
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("v1 image: %s: %w", fmt.Sprintf(format, args...), ErrImageCorrupt)
	}
	n, err := checkImageGeometry(img.Geo)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	if int64(len(img.Written)) != n || int64(len(img.OOBLPA)) != n || int64(len(img.OOBSeq)) != n {
		return nil, corrupt("sector-state length mismatch")
	}
	if len(img.Blocks) != img.Geo.Chips() {
		return nil, corrupt("block-state chip count mismatch")
	}
	for c := range img.Blocks {
		if len(img.Blocks[c]) != img.Geo.BlocksPerChip {
			return nil, corrupt("block-state length mismatch on chip %d", c)
		}
	}
	a, err := NewArray(img.Geo, lat, nil)
	if err != nil {
		return nil, err
	}
	for c := range img.Blocks {
		for b, bs := range img.Blocks[c] {
			a.blocks[c][b] = blockState{nextSector: bs.NextSector, eraseCount: bs.EraseCount}
		}
	}
	a.seq = img.Seq
	a.journal = img.Journal
	a.counters = img.Counters
	if err := a.checkTables(); err != nil {
		return nil, corrupt("%v", err)
	}
	// An erased sector touches nothing: its chunk stays absent.
	for i := int64(0); i < n; i++ {
		if img.Written[i] {
			a.touch(i).written |= 1 << uint(i&chunkMask)
		}
		if img.OOBLPA[i] != -1 || img.OOBSeq[i] != 0 {
			a.stamp(i, img.OOBLPA[i], img.OOBSeq[i])
		}
	}
	for ci, c := range a.chunks {
		if c != nil {
			if err := a.checkChunk(int64(ci)); err != nil {
				return nil, corrupt("%v", err)
			}
		}
	}
	if err := a.checkAppendPoints(); err != nil {
		return nil, corrupt("%v", err)
	}
	for idx, p := range img.Payload {
		if idx < 0 || idx >= n {
			return nil, corrupt("payload index %d out of range", idx)
		}
		if !img.Written[idx] {
			return nil, corrupt("payload on unwritten sector %d", idx)
		}
		if int64(len(p)) != units.Sector {
			return nil, corrupt("payload of %d bytes on sector %d", len(p), idx)
		}
		h := a.slabs.get()
		copy(a.slabs.buf(h), p)
		a.touch(idx).slab[idx&chunkMask] = h
	}
	return a, nil
}
