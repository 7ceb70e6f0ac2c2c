// Package units provides byte-size and time constants and helpers shared by
// the whole emulator. All device-visible sizes are expressed in bytes and all
// simulated latencies in nanoseconds of virtual time.
package units

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Byte-size constants. The emulator follows storage conventions: sizes are
// binary (KiB = 1024 bytes) even when written "KB" in vendor material.
const (
	B   int64 = 1
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
	TiB int64 = 1 << 40
)

// Sector is the host-visible logical block size and the granularity of the
// L2P mapping table (4 KiB), matching the paper's logical page size.
const Sector = 4 * KiB

// FormatBytes renders a byte count using the largest exact binary unit,
// falling back to a two-decimal representation for inexact values.
func FormatBytes(n int64) string {
	abs := n
	if abs < 0 {
		abs = -abs
	}
	type unit struct {
		size int64
		name string
	}
	for _, u := range []unit{{TiB, "TiB"}, {GiB, "GiB"}, {MiB, "MiB"}, {KiB, "KiB"}} {
		if abs < u.size {
			continue
		}
		if n%u.size == 0 {
			return strconv.FormatInt(n/u.size, 10) + u.name
		}
		return fmt.Sprintf("%.2f%s", float64(n)/float64(u.size), u.name)
	}
	return strconv.FormatInt(n, 10) + "B"
}

// ParseBytes parses strings such as "384KiB", "1.5GB", "96k", or "4096".
// Both binary suffixes (KiB/MiB/GiB/TiB) and the loose decimal-looking
// storage-vendor suffixes (K/KB/M/MB/G/GB/T/TB) are interpreted as binary
// multiples, matching fio's default behaviour.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty size")
	}
	upper := strings.ToUpper(t)
	mult := B
	suffixes := []struct {
		sfx  string
		size int64
	}{
		{"TIB", TiB}, {"GIB", GiB}, {"MIB", MiB}, {"KIB", KiB},
		{"TB", TiB}, {"GB", GiB}, {"MB", MiB}, {"KB", KiB},
		{"T", TiB}, {"G", GiB}, {"M", MiB}, {"K", KiB}, {"B", B},
	}
	for _, u := range suffixes {
		if strings.HasSuffix(upper, u.sfx) {
			mult = u.size
			t = t[:len(t)-len(u.sfx)]
			break
		}
	}
	t = strings.TrimSpace(t)
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		v := f * float64(mult)
		if v < 0 {
			return 0, fmt.Errorf("units: negative size %q", s)
		}
		return int64(v), nil
	}
	return 0, fmt.Errorf("units: cannot parse size %q", s)
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("units: CeilDiv with non-positive divisor")
	}
	return (a + b - 1) / b
}

// AlignUp rounds n up to the next multiple of align (align > 0).
func AlignUp(n, align int64) int64 {
	return CeilDiv(n, align) * align
}

// AlignDown rounds n down to a multiple of align (align > 0).
func AlignDown(n, align int64) int64 {
	if align <= 0 {
		panic("units: AlignDown with non-positive alignment")
	}
	return n - n%align
}

// NextPow2 returns the smallest power of two >= n (n >= 1).
func NextPow2(n int64) int64 {
	if n <= 1 {
		return 1
	}
	p := int64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// BandwidthMiBps converts a byte count and a virtual duration into MiB/s.
// A zero duration yields 0 rather than +Inf so reports stay finite.
func BandwidthMiBps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / float64(MiB) / d.Seconds()
}

// IOPS converts an operation count and a virtual duration into ops/second.
func IOPS(ops int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds()
}

// TransferTime returns the virtual time needed to move bytes over a link of
// the given bandwidth in MiB/s. Zero or negative bandwidth means an
// infinitely fast link (used by the FEMU personality, which does not model
// the UFS channel).
func TransferTime(bytes int64, mibps float64) time.Duration {
	if mibps <= 0 || bytes <= 0 {
		return 0
	}
	sec := float64(bytes) / (mibps * float64(MiB))
	return time.Duration(sec * float64(time.Second))
}
