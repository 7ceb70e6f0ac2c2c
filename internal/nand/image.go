package nand

import (
	"encoding/gob"
	"fmt"
	"os"
)

// File-backed NAND image: the array's durable state — programmed flags,
// payloads, per-block append points and wear, OOB stamps, the metadata
// journal and activity counters — serialized with encoding/gob so an
// experiment can stop, restart, and remount the same media. Only durable
// state is saved: timing resources restart at virtual time zero on load
// (power-on resets the clock), and volatile controller state (write
// buffers, L2P cache) is deliberately absent — a loaded image goes through
// the same recovery scan as a crashed in-memory device.

// imageVersion guards against loading images written by an incompatible
// layout.
const imageVersion = 1

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

// SaveImage writes the array's durable state to path, replacing any
// existing file. The in-memory array is unchanged.
func (a *Array) SaveImage(path string) error {
	// The v1 layout is dense: one flag and one stamp per linear sector,
	// -1 marking a never-stamped sector. Absent chunks keep those defaults.
	img := imageFile{
		Version:  imageVersion,
		Geo:      a.geo,
		Written:  make([]bool, a.nsectors),
		Payload:  make(map[int64][]byte),
		OOBLPA:   make([]int64, a.nsectors),
		OOBSeq:   make([]int64, a.nsectors),
		Seq:      a.seq,
		Journal:  a.journal,
		Counters: a.counters,
	}
	img.Blocks = make([][]imageBlock, len(a.blocks))
	for c := range a.blocks {
		img.Blocks[c] = make([]imageBlock, len(a.blocks[c]))
		for b, bs := range a.blocks[c] {
			img.Blocks[c][b] = imageBlock{NextSector: bs.nextSector, EraseCount: bs.eraseCount}
		}
	}
	for i := range img.OOBLPA {
		img.OOBLPA[i] = -1
	}
	for ci, c := range a.chunks {
		if c == nil {
			continue
		}
		base := int64(ci) << chunkShift
		for i := int64(0); i < chunkSectors && base+i < a.nsectors; i++ {
			img.Written[base+i] = c.written>>uint(i)&1 != 0
			img.OOBLPA[base+i] = c.oobLPA[i] - 1
			img.OOBSeq[base+i] = c.oobSeq[i]
			if h := c.slab[i]; h != 0 {
				img.Payload[base+i] = a.slabs.buf(h)
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nand: save image: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(&img); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("nand: save image: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("nand: save image: %w", err)
	}
	return nil
}

// LoadArray rebuilds an array from an image written by SaveImage. The
// latency table is supplied by the caller (timing is configuration, not
// media state); the image's geometry must validate. The returned array is
// powered on at virtual time zero and has no fault injector attached — the
// caller re-attaches one before mounting.
func LoadArray(path string, lat LatencyTable) (*Array, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nand: load image: %w", err)
	}
	defer f.Close()
	var img imageFile
	if err := gob.NewDecoder(f).Decode(&img); err != nil {
		return nil, fmt.Errorf("nand: load image %s: %w", path, err)
	}
	if img.Version != imageVersion {
		return nil, fmt.Errorf("nand: image %s has version %d, want %d", path, img.Version, imageVersion)
	}
	a, err := NewArray(img.Geo, lat, nil)
	if err != nil {
		return nil, fmt.Errorf("nand: load image %s: %w", path, err)
	}
	n := img.Geo.TotalSectors()
	if int64(len(img.Written)) != n || int64(len(img.OOBLPA)) != n || int64(len(img.OOBSeq)) != n {
		return nil, fmt.Errorf("nand: image %s: sector-state length mismatch", path)
	}
	if len(img.Blocks) != img.Geo.Chips() {
		return nil, fmt.Errorf("nand: image %s: block-state chip count mismatch", path)
	}
	for c := range img.Blocks {
		if len(img.Blocks[c]) != img.Geo.BlocksPerChip {
			return nil, fmt.Errorf("nand: image %s: block-state length mismatch on chip %d", path, c)
		}
		for b, bs := range img.Blocks[c] {
			a.blocks[c][b] = blockState{nextSector: bs.NextSector, eraseCount: bs.EraseCount}
		}
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
	a.seq = img.Seq
	a.journal = img.Journal
	a.counters = img.Counters
	for idx, p := range img.Payload {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("nand: image %s: payload index %d out of range", path, idx)
		}
		if !img.Written[idx] {
			return nil, fmt.Errorf("nand: image %s: payload on unwritten sector %d", path, idx)
		}
		h := a.slabs.get()
		copy(a.slabs.buf(h), p)
		a.touch(idx).slab[idx&chunkMask] = h
	}
	return a, nil
}
