package nand

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"

	"github.com/conzone/conzone/internal/units"
)

// File-backed NAND image: the array's durable state — programmed flags,
// payloads, per-block append points and wear, OOB stamps, the metadata
// journal and activity counters — so an experiment can stop, restart, and
// remount the same media. Only durable state is saved: timing resources
// restart at virtual time zero on load (power-on resets the clock), and
// volatile controller state (write buffers, L2P cache) is deliberately
// absent — a loaded image goes through the same recovery scan as a crashed
// in-memory device.
//
// The format (v2) mirrors the sparse in-memory state, so a file costs what
// the device holds: a fixed header, then four sections — block table,
// journal, counters, chunk directory — each a length prefix, a body and a
// CRC32C. Every byte of the file is covered by exactly one checksum, all
// integers are little-endian, and nothing in it depends on map order or
// slab handles: one device state has one encoding. DESIGN §13 has the byte
// layout and the rules the loader enforces.

const (
	imageMagic   = "CZNANDIM"
	imageVersion = 2

	geometryFields = 12
	imageSections  = 4
	// magic, version, geometry, section lengths, CRC32C of all of these.
	headerGeometryAt = len(imageMagic) + 4
	headerLensAt     = headerGeometryAt + geometryFields*8
	imageHeaderLen   = headerLensAt + imageSections*8 + 4
	// Per section: length prefix before the body, CRC32C after it.
	sectionOverhead = 8 + 4

	blockRecordLen   = 2 * 8                  // nextSector, eraseCount
	journalRecordLen = 7 * 8                  // MetaRecord's fields
	countersLen      = 9 * 8                  // Counters' fields, then the sequence counter
	chunkRecordLen   = 4*8 + 2*chunkSectors*8 // index, written, stamped, payload mask, oobLPA, oobSeq
	chunkLPAAt       = 4 * 8                  // oobLPA within a chunk record
	chunkSeqAt       = chunkLPAAt + chunkSectors*8
	imageBufSize     = 256 * int(units.KiB)  // bufio on both sides
	maxImageSectors  = int64(1) << 30        // 4 TiB of media: bounds what a header can make the loader allocate
	maxImagePUBytes  = int64(64) * units.MiB // likewise, for the transfer-time table
	imageOverhead    = imageHeaderLen + imageSections*sectionOverhead
)

// Sections in file order. The chunk directory is last: it is the only one
// that grows with the data, and its checks need the sequence counter.
const (
	secBlocks = iota
	secJournal
	secCounters
	secChunks
)

var sectionNames = [imageSections]string{"block-table", "journal", "counters", "chunk-directory"}

var (
	// ErrImageFormat reports a file that is not a NAND image of a format
	// this build reads: wrong magic, or a version it does not know.
	ErrImageFormat = errors.New("not a NAND image of a known format")

	// ErrImageCorrupt reports a file that claims a known format and breaks
	// it: a checksum mismatch, a truncation, a length that disagrees with
	// the file size, or media state the array could never have been in.
	ErrImageCorrupt = errors.New("corrupt NAND image")

	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	le         = binary.LittleEndian
)

// checkImageGeometry bounds what the loader allocates on a header's say-so
// (the chunk directory and the transfer-time table are sized by geometry
// alone) and returns the linear sector count. The writer applies it too, so
// nothing is saved that would not load.
func checkImageGeometry(g Geometry) (int64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	n := int64(1)
	for _, f := range [...]int64{int64(g.Channels), int64(g.ChipsPerChannel), int64(g.BlocksPerChip),
		int64(g.maxPagesPerBlock()), int64(g.sectorsPerPage())} {
		if f > maxImageSectors/n {
			return 0, fmt.Errorf("geometry spans more than %d sectors", maxImageSectors)
		}
		n *= f
	}
	if g.ProgramUnit > maxImagePUBytes {
		return 0, fmt.Errorf("program unit of %d bytes exceeds %d", g.ProgramUnit, maxImagePUBytes)
	}
	return n, nil
}

func putGeometry(b []byte, g Geometry) {
	for i, v := range [geometryFields]uint64{
		uint64(g.Channels), uint64(g.ChipsPerChannel), uint64(g.BlocksPerChip),
		uint64(g.PagesPerBlock), uint64(g.SLCPagesPerBlock), uint64(g.PageSize),
		uint64(g.SLCBlocks), uint64(g.MapBlocks), uint64(g.NormalMedia),
		uint64(g.ProgramUnit), uint64(g.SLCProgramUnit), math.Float64bits(g.ChannelMiBps),
	} {
		le.PutUint64(b[8*i:], v)
	}
}

func getGeometry(b []byte) Geometry {
	i64 := func(i int) int64 { return int64(le.Uint64(b[8*i:])) }
	return Geometry{
		Channels: int(i64(0)), ChipsPerChannel: int(i64(1)), BlocksPerChip: int(i64(2)),
		PagesPerBlock: int(i64(3)), SLCPagesPerBlock: int(i64(4)), PageSize: i64(5),
		SLCBlocks: int(i64(6)), MapBlocks: int(i64(7)), NormalMedia: Media(i64(8)),
		ProgramUnit: i64(9), SLCProgramUnit: i64(10), ChannelMiBps: math.Float64frombits(le.Uint64(b[8*11:])),
	}
}

// counterWords lists the counters section's fields in file order: the
// activity counters, then the program sequence counter.
func (a *Array) counterWords() [countersLen / 8]*int64 {
	c := &a.counters
	return [...]*int64{&c.PageReads, &c.PUPrograms, &c.PartialPrograms, &c.PageProgramsSLC,
		&c.MapPrograms, &c.Erases, &c.BytesRead, &c.BytesProgrammed, &a.seq}
}

// payloadMask returns which of the chunk's sectors hold a payload slab.
func (c *sectorChunk) payloadMask() (m uint64) {
	for i, h := range c.slab {
		if h != 0 {
			m |= 1 << uint(i)
		}
	}
	return m
}

// imageWriter streams sections through one buffered writer, keeping the
// CRC32C of everything written since the previous checksum. Write errors
// stick to the bufio.Writer and surface at Flush.
type imageWriter struct {
	w   *bufio.Writer
	crc uint32
	buf [chunkRecordLen]byte
}

func (w *imageWriter) write(p []byte) {
	w.crc = crc32.Update(w.crc, castagnoli, p)
	w.w.Write(p)
}

func (w *imageWriter) u64(vs ...uint64) {
	for i, v := range vs {
		le.PutUint64(w.buf[8*i:], v)
	}
	w.write(w.buf[:8*len(vs)])
}

// sum writes the checksum of the bytes since the previous one.
func (w *imageWriter) sum() {
	le.PutUint32(w.buf[:], w.crc)
	w.w.Write(w.buf[:4])
	w.crc = 0
}

// writeImage streams the array's durable state to w in the v2 format. It
// holds no copy of the media: the only buffer is the bufio.Writer's.
func (a *Array) writeImage(w io.Writer) error {
	if _, err := checkImageGeometry(a.geo); err != nil {
		return err
	}
	// Section lengths go in the header, so the one that depends on the data
	// is sized first: one pass over the chunk directory, no payload touched.
	// A chunk that CopyOOB left without any flag is skipped, as if recycled.
	var chunks uint64
	chunksLen := int64(8)
	for _, c := range a.chunks {
		if c != nil && c.written|c.stamped != 0 {
			chunks++
			chunksLen += chunkRecordLen + int64(bits.OnesCount64(c.payloadMask()))*units.Sector
		}
	}
	lens := [imageSections]int64{
		secBlocks:   int64(len(a.blocks)) * int64(a.geo.BlocksPerChip) * blockRecordLen,
		secJournal:  8 + int64(len(a.journal))*journalRecordLen,
		secCounters: countersLen,
		secChunks:   chunksLen,
	}

	iw := &imageWriter{w: bufio.NewWriterSize(w, imageBufSize)}
	hdr := iw.buf[:imageHeaderLen-4]
	le.PutUint32(hdr[copy(hdr, imageMagic):], imageVersion)
	putGeometry(hdr[headerGeometryAt:], a.geo)
	for i, l := range lens {
		le.PutUint64(hdr[headerLensAt+8*i:], uint64(l))
	}
	iw.write(hdr)
	iw.sum()

	iw.u64(uint64(lens[secBlocks]))
	for c := range a.blocks {
		for _, bs := range a.blocks[c] {
			iw.u64(uint64(bs.nextSector), uint64(bs.eraseCount))
		}
	}
	iw.sum()

	iw.u64(uint64(lens[secJournal]), uint64(len(a.journal)))
	for _, r := range a.journal {
		iw.u64(uint64(r.Kind), uint64(r.Zone), uint64(r.SB), uint64(r.Chip), uint64(r.Block), uint64(r.Op), uint64(r.Seq))
	}
	iw.sum()

	iw.u64(uint64(lens[secCounters]))
	for _, v := range a.counterWords() {
		iw.u64(uint64(*v))
	}
	iw.sum()

	iw.u64(uint64(lens[secChunks]), chunks)
	for ci, c := range a.chunks {
		if c == nil || c.written|c.stamped == 0 {
			continue
		}
		mask := c.payloadMask()
		rec := iw.buf[:chunkRecordLen]
		le.PutUint64(rec[0:], uint64(ci))
		le.PutUint64(rec[8:], c.written)
		le.PutUint64(rec[16:], c.stamped)
		le.PutUint64(rec[24:], mask)
		for i := 0; i < chunkSectors; i++ {
			le.PutUint64(rec[chunkLPAAt+8*i:], uint64(c.oobLPA[i]))
			le.PutUint64(rec[chunkSeqAt+8*i:], uint64(c.oobSeq[i]))
		}
		iw.write(rec)
		for ; mask != 0; mask &= mask - 1 {
			iw.write(a.slabs.buf(c.slab[bits.TrailingZeros64(mask)]))
		}
	}
	iw.sum()
	return iw.w.Flush()
}

// replaceFile writes a file through write and moves it over path only once
// it is complete and closed, so a failed save leaves the previous file as
// it was. The temporary sits beside path: a rename does not cross file
// systems.
func replaceFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// SaveImage writes the array's durable state to path, atomically replacing
// any existing file: if the save fails, what was at path is untouched. The
// in-memory array is unchanged.
func (a *Array) SaveImage(path string) error {
	if err := replaceFile(path, a.writeImage); err != nil {
		return fmt.Errorf("nand: save image: %w", err)
	}
	return nil
}

// LoadArray rebuilds an array from an image written by SaveImage. The latency
// table is supplied by the caller (timing is configuration, not media
// state). The file is checked against its own size and checksums and against
// the media contract before it is believed; a refusal matches ErrImageFormat
// or ErrImageCorrupt and names the section and file offset. The returned
// array is powered on at virtual time zero and has no fault injector
// attached — the caller re-attaches one before mounting.
func LoadArray(path string, lat LatencyTable) (*Array, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nand: load image: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("nand: load image: %w", err)
	}
	a, err := readImage(f, st.Size(), lat)
	if err != nil {
		return nil, fmt.Errorf("nand: load image %s: %w", path, err)
	}
	return a, nil
}

// readImage loads an image of size bytes from r.
func readImage(r io.ReaderAt, size int64, lat LatencyTable) (*Array, error) {
	var magic [len(imageMagic)]byte
	if n, _ := r.ReadAt(magic[:], 0); string(magic[:n]) != imageMagic {
		return nil, fmt.Errorf("no %s magic (images written before format v2 are no longer readable): %w", imageMagic, ErrImageFormat)
	}
	ir := &imageReader{r: bufio.NewReaderSize(io.NewSectionReader(r, 0, size), imageBufSize), section: "header", left: size}
	return ir.readArray(size, lat)
}

// imageReader is imageWriter's mirror: it reads section bodies through one
// buffered reader, never past the length the header gave the section, and
// keeps the CRC32C of everything read since the previous checksum.
type imageReader struct {
	r       *bufio.Reader
	section string // for error messages
	off     int64  // file offset of the next unread byte
	left    int64  // unread bytes of the current section
	crc     uint32
	buf     [chunkRecordLen]byte
}

// corrupt builds an ErrImageCorrupt naming the section and file offset.
func (r *imageReader) corrupt(format string, args ...any) error {
	return fmt.Errorf("%s, offset %d: %s: %w", r.section, r.off, fmt.Sprintf(format, args...), ErrImageCorrupt)
}

// take fills p from the current section.
func (r *imageReader) take(p []byte) error {
	if int64(len(p)) > r.left {
		return r.corrupt("needs %d more bytes, %d left", len(p), r.left)
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		return r.corrupt("truncated: %v", err)
	}
	r.crc = crc32.Update(r.crc, castagnoli, p)
	r.off += int64(len(p))
	r.left -= int64(len(p))
	return nil
}

// u64s reads n little-endian words into the scratch buffer.
func (r *imageReader) u64s(n int) ([]byte, error) {
	p := r.buf[:8*n]
	return p, r.take(p)
}

// sum checks the stored checksum of the bytes since the previous one.
func (r *imageReader) sum() error {
	want := r.crc
	r.left = 4
	p, at := r.buf[:4], r.off
	if err := r.take(p); err != nil {
		return err
	}
	if got := le.Uint32(p); got != want {
		r.off = at
		return r.corrupt("checksum %08x, contents sum to %08x", got, want)
	}
	r.crc = 0
	return nil
}

// begin enters the next section: its length prefix must repeat the header's.
func (r *imageReader) begin(sec int, length int64) error {
	r.section, r.left = sectionNames[sec]+" section", 8
	p, err := r.u64s(1)
	if err != nil {
		return err
	}
	if got := le.Uint64(p); got != uint64(length) {
		r.off -= 8
		return r.corrupt("length prefix %d, header says %d", got, length)
	}
	r.left = length
	return nil
}

// end leaves a section: all of it must have been claimed, and it must sum.
func (r *imageReader) end() error {
	if r.left != 0 {
		return r.corrupt("%d bytes no record claims", r.left)
	}
	return r.sum()
}

// readArray loads a v2 image. Every length is checked against the file size
// before anything is allocated for it; the rules run in file order.
func (r *imageReader) readArray(size int64, lat LatencyTable) (*Array, error) {
	if size < int64(imageHeaderLen) {
		return nil, r.corrupt("file of %d bytes is shorter than the %d-byte header", size, imageHeaderLen)
	}
	hdr := r.buf[:imageHeaderLen-4]
	if err := r.take(hdr); err != nil {
		return nil, err
	}
	if v := le.Uint32(hdr[len(imageMagic):]); v != imageVersion {
		return nil, fmt.Errorf("image version %d, this build reads %d: %w", v, imageVersion, ErrImageFormat)
	}
	geo := getGeometry(hdr[headerGeometryAt:])
	var lens [imageSections]int64
	for i := range lens {
		lens[i] = int64(le.Uint64(hdr[headerLensAt+8*i:]))
	}
	if err := r.sum(); err != nil {
		return nil, err
	}
	if _, err := checkImageGeometry(geo); err != nil {
		return nil, r.corrupt("%v", err)
	}
	total := int64(imageOverhead)
	for i, l := range lens {
		if l < 0 || l > size-total {
			return nil, r.corrupt("%s section of %d bytes does not fit the %d-byte file", sectionNames[i], l, size)
		}
		total += l
	}
	if total != size {
		return nil, r.corrupt("header and sections span %d bytes, the file has %d", total, size)
	}
	nblocks := int64(geo.Chips()) * int64(geo.BlocksPerChip)
	switch {
	case lens[secBlocks] != nblocks*blockRecordLen:
		return nil, r.corrupt("block table of %d bytes, the geometry's %d blocks need %d", lens[secBlocks], nblocks, nblocks*blockRecordLen)
	case lens[secJournal] < 8 || (lens[secJournal]-8)%journalRecordLen != 0:
		return nil, r.corrupt("journal section of %d bytes is not a count and whole records", lens[secJournal])
	case lens[secCounters] != countersLen:
		return nil, r.corrupt("counters section of %d bytes, want %d", lens[secCounters], countersLen)
	case lens[secChunks] < 8:
		return nil, r.corrupt("chunk directory of %d bytes has no count", lens[secChunks])
	}

	a, err := NewArray(geo, lat, nil)
	if err != nil {
		return nil, err
	}
	for sec, read := range [imageSections]func(*Array) error{r.readBlocks, r.readJournal, r.readCounters, r.readChunks} {
		if err := r.begin(sec, lens[sec]); err != nil {
			return nil, err
		}
		if err := read(a); err != nil {
			return nil, err
		}
		if err := r.end(); err != nil {
			return nil, err
		}
		// What a section says is judged once its checksum has held.
		var broken error
		switch sec {
		case secCounters:
			broken = a.checkTables()
		case secChunks:
			broken = a.checkAppendPoints()
		}
		if broken != nil {
			return nil, r.corrupt("%v", broken)
		}
	}
	return a, nil
}

func (r *imageReader) readBlocks(a *Array) error {
	for c := range a.blocks {
		for b := range a.blocks[c] {
			p, err := r.u64s(2)
			if err != nil {
				return err
			}
			a.blocks[c][b] = blockState{nextSector: int(int64(le.Uint64(p))), eraseCount: int64(le.Uint64(p[8:]))}
		}
	}
	return nil
}

func (r *imageReader) readJournal(a *Array) error {
	p, err := r.u64s(1)
	if err != nil {
		return err
	}
	if got, want := le.Uint64(p), uint64(r.left)/journalRecordLen; got != want {
		return r.corrupt("journal counts %d records, the section holds %d", got, want)
	} else if want > 0 {
		a.journal = make([]MetaRecord, want)
	}
	for i := range a.journal {
		if p, err = r.u64s(journalRecordLen / 8); err != nil {
			return err
		}
		i64 := func(k int) int64 { return int64(le.Uint64(p[8*k:])) }
		if k := i64(0); k < 0 || k > int64(MetaZoneFinish) {
			return r.corrupt("journal record %d has unknown kind %d", i, k)
		}
		a.journal[i] = MetaRecord{Kind: MetaKind(i64(0)), Zone: int(i64(1)), SB: int(i64(2)),
			Chip: int(i64(3)), Block: int(i64(4)), Op: int(i64(5)), Seq: i64(6)}
	}
	return nil
}

func (r *imageReader) readCounters(a *Array) error {
	p, err := r.u64s(countersLen / 8)
	if err != nil {
		return err
	}
	for k, v := range a.counterWords() {
		*v = int64(le.Uint64(p[8*k:]))
	}
	return nil
}

// readChunks loads the chunk directory. A record's flags are checked before
// a chunk is allocated for it, its OOB arrays before any payload slab.
func (r *imageReader) readChunks(a *Array) error {
	p, err := r.u64s(1)
	if err != nil {
		return err
	}
	count, nchunks := le.Uint64(p), int64(len(a.chunks))
	if count > uint64(nchunks) || count > uint64(r.left)/chunkRecordLen {
		return r.corrupt("directory counts %d chunks; the geometry has %d and the section room for %d", count, nchunks, r.left/chunkRecordLen)
	}
	prev := int64(-1)
	for ; count > 0; count-- {
		rec := r.buf[:chunkRecordLen]
		if err := r.take(rec); err != nil {
			return err
		}
		ci, written, stamped, mask := int64(le.Uint64(rec)), le.Uint64(rec[8:]), le.Uint64(rec[16:]), le.Uint64(rec[24:])
		switch {
		case ci <= prev || ci >= nchunks:
			return r.corrupt("chunk index %d after %d, want ascending below %d", ci, prev, nchunks)
		case written|stamped == 0:
			return r.corrupt("chunk %d is empty", ci)
		case mask&^written != 0:
			return r.corrupt("chunk %d: payload on unwritten sector %d", ci, ci<<chunkShift+int64(bits.TrailingZeros64(mask&^written)))
		case int64(bits.OnesCount64(mask))*units.Sector > r.left:
			return r.corrupt("chunk %d: %d payload sectors, %d bytes left", ci, bits.OnesCount64(mask), r.left)
		}
		prev = ci
		c := a.touch(ci << chunkShift)
		c.written, c.stamped = written, stamped
		for i := 0; i < chunkSectors; i++ {
			c.oobLPA[i] = int64(le.Uint64(rec[chunkLPAAt+8*i:]))
			c.oobSeq[i] = int64(le.Uint64(rec[chunkSeqAt+8*i:]))
		}
		if err := a.checkChunk(ci); err != nil {
			return r.corrupt("%v", err)
		}
		for ; mask != 0; mask &= mask - 1 {
			h := a.slabs.get()
			c.slab[bits.TrailingZeros64(mask)] = h
			if err := r.take(a.slabs.buf(h)); err != nil {
				return err
			}
		}
	}
	return nil
}

// The media contract, shared by both loaders. Each check returns a plain
// description; the loader adds where in the file it was and the class.

// checkTables checks what is not per-sector state: counters, the sequence
// counter, the block table's ranges and the journal. checkAppendPoints
// checks the block table against the programmed flags.
func (a *Array) checkTables() error {
	for _, v := range a.counterWords() {
		if *v < 0 {
			return fmt.Errorf("negative activity or sequence counter %d", *v)
		}
	}
	for c := range a.blocks {
		for b, bs := range a.blocks[c] {
			if bs.nextSector < 0 || bs.nextSector > a.meta[b].pages*a.geo.sectorsPerPage() {
				return fmt.Errorf("block %d/%d: append point %d outside the block", c, b, bs.nextSector)
			}
			if bs.eraseCount < 0 {
				return fmt.Errorf("block %d/%d: negative erase count %d", c, b, bs.eraseCount)
			}
		}
	}
	// Every erase the array counts wore a block; pre-wear adds wear only.
	if wear := a.TotalEraseCount(); wear < a.counters.Erases {
		return fmt.Errorf("%d erases counted, the blocks record %d", a.counters.Erases, wear)
	}
	for i, rec := range a.journal {
		if rec.Seq < 0 || rec.Seq > a.seq {
			return fmt.Errorf("journal record %d: sequence %d outside [0, %d]", i, rec.Seq, a.seq)
		}
	}
	return nil
}

// checkChunk checks one resident chunk's flags and OOB arrays: no state
// beyond the last sector, a stamp bit exactly where a logical address is
// recorded, and no stamp newer than the sequence counter — a later program
// must outrank every copy already on the media.
func (a *Array) checkChunk(ci int64) error {
	c, base := a.chunks[ci], ci<<chunkShift
	if over := a.nsectors - base; over < chunkSectors && (c.written|c.stamped)>>uint(over) != 0 {
		return fmt.Errorf("chunk %d: state beyond the last sector %d", ci, a.nsectors-1)
	}
	for i := 0; i < chunkSectors; i++ {
		lpa, seq := c.oobLPA[i], c.oobSeq[i]
		if c.stamped>>uint(i)&1 == 0 {
			if lpa != 0 || seq != 0 {
				return fmt.Errorf("sector %d: OOB (%d, %d) without a stamp flag", base+int64(i), lpa-1, seq)
			}
		} else if lpa <= 0 || seq <= 0 || seq > a.seq {
			return fmt.Errorf("sector %d: stamp (%d, %d) is not a logical address and a sequence in [1, %d]", base+int64(i), lpa-1, seq, a.seq)
		}
	}
	return nil
}

// checkAppendPoints checks the programmed flags against the block table: a
// block is programmed exactly below its append point.
func (a *Array) checkAppendPoints() error {
	stride := int64(a.geo.maxPagesPerBlock() * a.geo.sectorsPerPage())
	for c := range a.blocks {
		for b, bs := range a.blocks[c] {
			base := (int64(c)*int64(a.geo.BlocksPerChip) + int64(b)) * stride
			next := base + int64(bs.nextSector)
			if i := a.findWritten(base, next, false); i >= 0 {
				return fmt.Errorf("block %d/%d: sector %d below the append point %d is not programmed", c, b, i-base, bs.nextSector)
			}
			if i := a.findWritten(next, base+stride, true); i >= 0 {
				return fmt.Errorf("block %d/%d: sector %d at or beyond the append point %d is programmed", c, b, i-base, bs.nextSector)
			}
		}
	}
	return nil
}

// findWritten returns the first linear sector in [lo, hi) whose programmed
// flag equals want, or -1.
func (a *Array) findWritten(lo, hi int64, want bool) int64 {
	for lo < hi {
		ci := lo >> chunkShift
		end := min((ci+1)<<chunkShift, hi)
		var w uint64
		if c := a.chunks[ci]; c != nil {
			w = c.written
		}
		if !want {
			w = ^w
		}
		if m := w & chunkBits(lo&chunkMask, (end-1)&chunkMask+1); m != 0 {
			return ci<<chunkShift + int64(bits.TrailingZeros64(m))
		}
		lo = end
	}
	return -1
}
