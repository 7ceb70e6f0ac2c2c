package units

import (
	"testing"
	"testing/quick"
	"time"
)

func TestFormatBytesExact(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{1, "1B"},
		{512, "512B"},
		{KiB, "1KiB"},
		{4 * KiB, "4KiB"},
		{384 * KiB, "384KiB"},
		{MiB, "1MiB"},
		{16 * MiB, "16MiB"},
		{GiB, "1GiB"},
		{TiB, "1TiB"},
		{2 * TiB, "2TiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatBytesInexact(t *testing.T) {
	if got := FormatBytes(1536 * MiB); got != "1.50GiB" {
		t.Errorf("FormatBytes(1.5GiB) = %q, want 1.50GiB", got)
	}
	if got := FormatBytes(KiB + 512); got != "1.50KiB" {
		t.Errorf("FormatBytes(1.5KiB) = %q, want 1.50KiB", got)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"4096", 4096},
		{"4k", 4 * KiB},
		{"4K", 4 * KiB},
		{"48KiB", 48 * KiB},
		{"96KB", 96 * KiB},
		{"384KiB", 384 * KiB},
		{"1M", MiB},
		{"512m", 512 * MiB},
		{"1.5G", 1536 * MiB},
		{"1.5GB", 1536 * MiB},
		{"2GiB", 2 * GiB},
		{"1T", TiB},
		{" 16MiB ", 16 * MiB},
		{"12kib", 12 * KiB},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Errorf("ParseBytes(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseBytesErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "12Q", "--3", "-4K"} {
		if _, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q): expected error", in)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		n := int64(raw) * KiB
		got, err := ParseBytes(FormatBytes(n))
		if err != nil {
			return false
		}
		if n == 0 {
			return got == 0
		}
		// Exact sizes round-trip exactly; inexact ones print two decimals,
		// so allow 1% relative error.
		diff := got - n
		if diff < 0 {
			diff = -diff
		}
		return float64(diff)/float64(n) <= 0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {9, 4, 3},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv(1,0) should panic")
		}
	}()
	CeilDiv(1, 0)
}

func TestAlignUpDown(t *testing.T) {
	if got := AlignUp(5, 4); got != 8 {
		t.Errorf("AlignUp(5,4) = %d", got)
	}
	if got := AlignUp(8, 4); got != 8 {
		t.Errorf("AlignUp(8,4) = %d", got)
	}
	if got := AlignDown(5, 4); got != 4 {
		t.Errorf("AlignDown(5,4) = %d", got)
	}
	if got := AlignDown(8, 4); got != 8 {
		t.Errorf("AlignDown(8,4) = %d", got)
	}
}

func TestAlignProperties(t *testing.T) {
	f := func(n uint16, a uint8) bool {
		align := int64(a%16) + 1
		v := int64(n)
		up, down := AlignUp(v, align), AlignDown(v, align)
		return up >= v && down <= v && up%align == 0 && down%align == 0 && up-down < 2*align
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {1023, 1024}, {1024, 1024},
	}
	for _, c := range cases {
		if got := NextPow2(c.in); got != c.want {
			t.Errorf("NextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestBandwidthMiBps(t *testing.T) {
	got := BandwidthMiBps(512*MiB, time.Second)
	if got != 512 {
		t.Errorf("BandwidthMiBps = %v, want 512", got)
	}
	if BandwidthMiBps(MiB, 0) != 0 {
		t.Error("zero duration must yield 0 bandwidth")
	}
}

func TestIOPS(t *testing.T) {
	if got := IOPS(2000, time.Second); got != 2000 {
		t.Errorf("IOPS = %v", got)
	}
	if IOPS(5, 0) != 0 {
		t.Error("zero duration must yield 0 IOPS")
	}
}

func TestTransferTime(t *testing.T) {
	// 3200 MiB/s moving 16 KiB: 16KiB/3200MiB = 4.768 us.
	d := TransferTime(16*KiB, 3200)
	if d < 4*time.Microsecond || d > 6*time.Microsecond {
		t.Errorf("TransferTime(16KiB, 3200MiB/s) = %v, want ~4.77us", d)
	}
	if TransferTime(MiB, 0) != 0 {
		t.Error("unthrottled link must take 0 time")
	}
	if TransferTime(0, 3200) != 0 {
		t.Error("zero bytes must take 0 time")
	}
}

func TestTransferTimeMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return TransferTime(x, 3200) <= TransferTime(y, 3200)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
