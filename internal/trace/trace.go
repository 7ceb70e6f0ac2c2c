// Package trace provides an I/O trace format for the emulator: a compact
// binary encoding and a human-editable text encoding of timed device
// operations, plus a recorder that wraps a device and a replayer that
// drives one. Traces make experiments portable: a workload captured from
// one device model can be replayed bit-identically against another.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// Op is the operation kind of a record.
type Op uint8

// Trace operations.
const (
	OpRead Op = iota
	OpWrite
	OpReset
	OpFlush
)

// String returns the single-letter mnemonic used by the text format.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "R"
	case OpWrite:
		return "W"
	case OpReset:
		return "Z"
	case OpFlush:
		return "F"
	default:
		return "?"
	}
}

func parseOp(s string) (Op, error) {
	switch s {
	case "R":
		return OpRead, nil
	case "W":
		return OpWrite, nil
	case "Z":
		return OpReset, nil
	case "F":
		return OpFlush, nil
	}
	return 0, fmt.Errorf("trace: unknown op %q", s)
}

// Record is one trace entry. At is the virtual submission time; LBA and
// Sectors address reads/writes; Zone addresses resets.
type Record struct {
	At      time.Duration
	Op      Op
	LBA     int64
	Sectors int64
	Zone    int32
}

const (
	magic   = uint32(0xC02E0E5) // "ConZone trace"
	version = uint16(1)
)

// Writer encodes records in the binary format.
type Writer struct {
	w       *bufio.Writer
	started bool
	count   int64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

func (tw *Writer) writeHeader() error {
	if tw.started {
		return nil
	}
	tw.started = true
	if err := binary.Write(tw.w, binary.LittleEndian, magic); err != nil {
		return err
	}
	return binary.Write(tw.w, binary.LittleEndian, version)
}

// Write appends one record.
func (tw *Writer) Write(r Record) error {
	if err := tw.writeHeader(); err != nil {
		return err
	}
	if r.At < 0 || r.Sectors < 0 {
		return fmt.Errorf("trace: negative field in %+v", r)
	}
	var buf [29]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.At))
	buf[8] = byte(r.Op)
	binary.LittleEndian.PutUint64(buf[9:], uint64(r.LBA))
	binary.LittleEndian.PutUint64(buf[17:], uint64(r.Sectors))
	binary.LittleEndian.PutUint32(buf[25:], uint32(r.Zone))
	if _, err := tw.w.Write(buf[:]); err != nil {
		return err
	}
	tw.count++
	return nil
}

// Flush drains buffered bytes. Call it before closing the destination.
func (tw *Writer) Flush() error {
	if err := tw.writeHeader(); err != nil { // empty traces still get a header
		return err
	}
	return tw.w.Flush()
}

// Reader decodes the binary format.
type Reader struct {
	r      *bufio.Reader
	header bool
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

func (tr *Reader) readHeader() error {
	if tr.header {
		return nil
	}
	var m uint32
	if err := binary.Read(tr.r, binary.LittleEndian, &m); err != nil {
		return err
	}
	if m != magic {
		return errors.New("trace: bad magic; not a ConZone trace")
	}
	var v uint16
	if err := binary.Read(tr.r, binary.LittleEndian, &v); err != nil {
		return err
	}
	if v != version {
		return fmt.Errorf("trace: unsupported version %d", v)
	}
	tr.header = true
	return nil
}

// Read returns the next record, or io.EOF at the end.
func (tr *Reader) Read() (Record, error) {
	if err := tr.readHeader(); err != nil {
		return Record{}, err
	}
	var buf [29]byte
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, fmt.Errorf("trace: truncated record: %w", err)
		}
		return Record{}, err
	}
	return Record{
		At:      time.Duration(binary.LittleEndian.Uint64(buf[0:])),
		Op:      Op(buf[8]),
		LBA:     int64(binary.LittleEndian.Uint64(buf[9:])),
		Sectors: int64(binary.LittleEndian.Uint64(buf[17:])),
		Zone:    int32(binary.LittleEndian.Uint32(buf[25:])),
	}, nil
}

// ReadAll decodes every record.
func (tr *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		r, err := tr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// EncodeText writes records in the line format
// "<at_us> <op> <lba> <sectors|zone>".
func EncodeText(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range records {
		var arg int64
		switch r.Op {
		case OpReset:
			arg = int64(r.Zone)
		default:
			arg = r.Sectors
		}
		if _, err := fmt.Fprintf(bw, "%d %s %d %d\n", r.At.Microseconds(), r.Op, r.LBA, arg); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeText parses the line format; blank lines and '#' comments are
// ignored.
func DecodeText(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", line, len(fields))
		}
		us, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %w", line, err)
		}
		op, err := parseOp(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		lba, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad lba: %w", line, err)
		}
		arg, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad arg: %w", line, err)
		}
		rec := Record{At: time.Duration(us) * time.Microsecond, Op: op, LBA: lba}
		if op == OpReset {
			rec.Zone = int32(arg)
		} else {
			rec.Sectors = arg
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReplayResult summarises a replay run.
type ReplayResult struct {
	Records   int64
	ReadOps   int64
	WriteOps  int64
	Resets    int64
	Flushes   int64
	LastDone  sim.Time
	ReadBytes int64
	WriteB    int64
}

// Replay drives the device with the records. Each record is submitted at
// max(record time, previous completion) so causality holds even for traces
// captured on a faster device.
func Replay(dev workload.Device, records []Record) (ReplayResult, error) {
	var res ReplayResult
	var clock sim.Time
	zdev, _ := dev.(workload.Zoned)
	for i, r := range records {
		at := sim.Time(0).Add(r.At)
		if at < clock {
			at = clock
		}
		var done sim.Time
		var err error
		switch r.Op {
		case OpRead:
			_, done, err = dev.Read(at, r.LBA, r.Sectors)
			res.ReadOps++
			res.ReadBytes += r.Sectors * units.Sector
		case OpWrite:
			done, err = dev.Write(at, r.LBA, make([][]byte, r.Sectors))
			res.WriteOps++
			res.WriteB += r.Sectors * units.Sector
		case OpReset:
			if zdev == nil {
				return res, fmt.Errorf("trace: record %d: reset on a non-zoned device", i)
			}
			done, err = zdev.ResetZone(at, int(r.Zone))
			res.Resets++
		case OpFlush:
			done, err = dev.FlushAll(at)
			res.Flushes++
		default:
			return res, fmt.Errorf("trace: record %d: unknown op %d", i, r.Op)
		}
		if err != nil {
			return res, fmt.Errorf("trace: record %d (%s lba=%d): %w", i, r.Op, r.LBA, err)
		}
		if done > clock {
			clock = done
		}
		res.Records++
	}
	res.LastDone = clock
	return res, nil
}
