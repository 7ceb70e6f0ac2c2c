package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/conzone/conzone/internal/sim"
)

func sampleRecords() []Record {
	return []Record{
		{At: 0, Op: OpWrite, LBA: 0, Sectors: 24},
		{At: 100 * time.Microsecond, Op: OpFlush},
		{At: 200 * time.Microsecond, Op: OpRead, LBA: 0, Sectors: 4},
		{At: 300 * time.Microsecond, Op: OpReset, Zone: 3},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range sampleRecords() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 4 {
		t.Errorf("Count = %d", w.Count())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(ats []uint32, ops []uint8, lbas []uint16) bool {
		n := len(ats)
		if len(ops) < n {
			n = len(ops)
		}
		if len(lbas) < n {
			n = len(lbas)
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{
				At:      time.Duration(ats[i]),
				Op:      Op(ops[i] % 4),
				LBA:     int64(lbas[i]),
				Sectors: int64(ops[i]%32) + 1,
				Zone:    int32(lbas[i] % 100),
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if w.Write(r) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		got, err := NewReader(&buf).ReadAll()
		if err != nil || len(got) != n {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTraceHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil || len(got) != 0 {
		t.Errorf("empty trace: %v, %v", got, err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("not a trace at all")).ReadAll(); err == nil {
		t.Error("garbage accepted")
	}
	// Truncated record after a valid header.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Write(sampleRecords()[0])
	_ = w.Flush()
	trunc := buf.Bytes()[:buf.Len()-5]
	_, err := NewReader(bytes.NewReader(trunc)).ReadAll()
	if err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated trace error = %v", err)
	}
}

func TestWriterRejectsNegative(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Write(Record{At: -1}); err == nil {
		t.Error("negative time accepted")
	}
	if err := w.Write(Record{Sectors: -2}); err == nil {
		t.Error("negative sectors accepted")
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeText(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestBinaryTextBinaryRoundTrip converts a binary trace with nanosecond
// instants to text and back, as conzone-trace -convert does, and requires
// the second binary to equal the first byte for byte.
func TestBinaryTextBinaryRoundTrip(t *testing.T) {
	var records []Record
	for i, at := range []time.Duration{0, 1, 999, 1000, 1001, 12_345, 100 * time.Microsecond, 1<<62 + 7} {
		records = append(records, Record{At: at, Op: Op(i % 4), LBA: int64(i), Sectors: int64(i + 1), Zone: int32(i)})
	}
	encode := func(records []Record) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range records {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	bin := encode(records)
	decoded, err := NewReader(bytes.NewReader(bin)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := EncodeText(&text, decoded); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(text.String(), "0 R 0 1\n0.001 W 1 2\n0.999 ") {
		t.Errorf("text form starts %q", text.String()[:30])
	}
	back, err := DecodeText(&text)
	if err != nil {
		t.Fatal(err)
	}
	// Resets carry their zone, not a sector count, through text.
	for i := range back {
		if back[i].Op == OpReset {
			back[i].Sectors = records[i].Sectors
		} else {
			back[i].Zone = records[i].Zone
		}
	}
	if !bytes.Equal(encode(back), bin) {
		t.Fatalf("binary → text → binary changed the trace:\n%+v\n%+v", back, records)
	}
}

// TestTextInstants pins both instant forms: whole microseconds, as every
// earlier text trace holds them, and up to three decimals.
func TestTextInstants(t *testing.T) {
	for s, want := range map[string]time.Duration{
		"12": 12 * time.Microsecond, "-3": -3 * time.Microsecond, "12.345": 12_345, "12.5": 12_500,
		"0.007": 7, "-0.500": -500, "-1.5": -1_500,
	} {
		got, err := parseAt(s)
		if err != nil || got != want {
			t.Errorf("parseAt(%q) = %v, %v; want %v", s, got, err, want)
		}
		if back, _ := parseAt(formatAt(want)); back != want {
			t.Errorf("formatAt(%v) = %q reads back as %v", want, formatAt(want), back)
		}
	}
	for _, bad := range []string{"12.3456", "12.", "12.-5", "1.2.3", ".5"} {
		if _, err := parseAt(bad); err == nil {
			t.Errorf("parseAt accepted %q", bad)
		}
	}
}

func TestTextCommentsAndErrors(t *testing.T) {
	in := "# a comment\n\n0 W 0 8\n"
	got, err := DecodeText(strings.NewReader(in))
	if err != nil || len(got) != 1 {
		t.Fatalf("comment handling: %v, %v", got, err)
	}
	for _, bad := range []string{
		"0 W 0\n",   // too few fields
		"x W 0 8\n", // bad time
		"0 Q 0 8\n", // bad op
		"0 W y 8\n", // bad lba
		"0 W 0 z\n", // bad arg
	} {
		if _, err := DecodeText(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// replayDevice is a minimal zoned device stub for replay tests.
type replayDevice struct {
	log    []string
	lastAt sim.Time
}

func (d *replayDevice) Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error) {
	d.log = append(d.log, "W")
	d.lastAt = at
	return at.Add(10 * time.Microsecond), nil
}

func (d *replayDevice) ReadInto(at sim.Time, lba, n int64, dst [][]byte) (sim.Time, error) {
	d.log = append(d.log, "R")
	d.lastAt = at
	clear(dst)
	return at.Add(5 * time.Microsecond), nil
}

func (d *replayDevice) FlushAll(at sim.Time) (sim.Time, error) {
	d.log = append(d.log, "F")
	return at, nil
}

func (d *replayDevice) TotalSectors() int64 { return 1 << 20 }

func (d *replayDevice) ResetZone(at sim.Time, zone int) (sim.Time, error) {
	d.log = append(d.log, "Z")
	return at.Add(time.Millisecond), nil
}

func (d *replayDevice) NumZones() int                              { return 8 }
func (d *replayDevice) ZoneCapSectors() int64                      { return 1 << 17 }
func (d *replayDevice) Flush(at sim.Time, _ int) (sim.Time, error) { return at, nil }

func TestReplay(t *testing.T) {
	dev := &replayDevice{}
	res, err := Replay(dev, sampleRecords())
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 4 || res.ReadOps != 1 || res.WriteOps != 1 || res.Resets != 1 || res.Flushes != 1 {
		t.Errorf("result = %+v", res)
	}
	if strings.Join(dev.log, "") != "WFRZ" {
		t.Errorf("op order = %v", dev.log)
	}
	if res.LastDone <= 0 {
		t.Error("no completion time")
	}
}

func TestReplayCausality(t *testing.T) {
	// A record timestamped before the previous completion is deferred.
	dev := &replayDevice{}
	recs := []Record{
		{At: 0, Op: OpReset, Zone: 1},                       // completes at 1ms
		{At: 10 * time.Microsecond, Op: OpRead, Sectors: 1}, // must wait
	}
	if _, err := Replay(dev, recs); err != nil {
		t.Fatal(err)
	}
	if dev.lastAt < sim.Time(time.Millisecond) {
		t.Errorf("causality violated: read at %v", dev.lastAt)
	}
}

// flatDevice has no zone support.
type flatDevice struct{ inner replayDevice }

func (d *flatDevice) Write(at sim.Time, lba int64, p [][]byte) (sim.Time, error) {
	return d.inner.Write(at, lba, p)
}

func (d *flatDevice) ReadInto(at sim.Time, lba, n int64, dst [][]byte) (sim.Time, error) {
	return d.inner.ReadInto(at, lba, n, dst)
}

func (d *flatDevice) FlushAll(at sim.Time) (sim.Time, error) { return d.inner.FlushAll(at) }
func (d *flatDevice) TotalSectors() int64                    { return d.inner.TotalSectors() }

func TestReplayErrors(t *testing.T) {
	if _, err := Replay(&flatDevice{}, []Record{{Op: OpReset}}); err == nil {
		t.Error("reset on non-zoned device accepted")
	}
	if _, err := Replay(&replayDevice{}, []Record{{Op: Op(9)}}); err == nil {
		t.Error("unknown op accepted")
	}
	for _, r := range []Record{{Op: OpRead, Sectors: -1}, {Op: OpWrite}, {Op: OpRead, Sectors: 1<<20 + 1}} {
		if _, err := Replay(&replayDevice{}, []Record{r}); err == nil {
			t.Errorf("%s of %d sectors accepted", r.Op, r.Sectors)
		}
	}
}
