package config

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"testing"

	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// comparator is the surface the FEMU-lineage devices share.
type comparator interface {
	Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error)
	Read(at sim.Time, lba, n int64) ([][]byte, sim.Time, error)
	Flush(at sim.Time, zone int) (sim.Time, error)
	ResetZone(at sim.Time, zone int) (sim.Time, error)
	NumZones() int
	ZoneCapSectors() int64
	Array() *nand.Array
}

// comparatorBuilds names the two FEMU-lineage devices by the constructors
// everything else uses; the closure returns HostWrittenBytes so the file
// does not name the device packages.
var comparatorBuilds = []struct {
	name  string
	build func(DeviceConfig) (comparator, func() int64, error)
}{
	{"femu", func(c DeviceConfig) (comparator, func() int64, error) {
		d, err := c.NewFEMU()
		return d, func() int64 { return d.Stats().HostWrittenBytes }, err
	}},
	{"confzns", func(c DeviceConfig) (comparator, func() int64, error) {
		d, err := c.NewConfZNS()
		return d, func() int64 { return d.Stats().HostWrittenBytes }, err
	}},
}

var comparatorLens = []int64{1, 2, 4, 8, 12, 24, 32, 96}

// comparatorDigest drives dev with a seeded stream of ops writes, reads,
// flushes and resets — about one in twenty of them deliberately invalid —
// and hashes every completion instant and error verdict, the first 16
// bytes of every sector read back, nand.Counters, the per-superblock erase
// counts (which superblock a zone was bound to) and HostWrittenBytes. Most
// ops are issued when the previous one completes; a quarter follow 1 us
// after the previous issue, so writes queue behind the buffer and the chips.
func comparatorDigest(dev comparator, hostWritten func() int64, seed uint64, ops int) uint64 {
	h := fnv.New64a()
	var word [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	r := sim.NewRand(seed)
	zones, zcap := dev.NumZones(), dev.ZoneCapSectors()
	hot := min(zones, 6)
	wp := make([]int64, zones)
	var now sim.Time
	var seq int64
	for i := 0; i < ops; i++ {
		zone := int(r.Int63n(int64(zones)))
		if r.Float64() < 0.8 {
			zone = int(r.Int63n(int64(hot)))
		}
		start := int64(zone) * zcap
		n := comparatorLens[r.Int63n(int64(len(comparatorLens)))]
		bad := r.Float64() < 0.05
		var done sim.Time
		var err error
		switch p := r.Float64(); {
		case p < 0.55:
			lba := start + wp[zone]
			n = min(n, zcap-wp[zone])
			if bad && wp[zone]+1 < zcap {
				lba++ // off the write pointer
				n = min(n, zcap-wp[zone]-1)
			}
			if n == 0 {
				continue // zone full
			}
			payloads := make([][]byte, n)
			for j := range payloads {
				seq++
				payloads[j] = make([]byte, units.Sector)
				binary.LittleEndian.PutUint64(payloads[j], uint64(lba)+uint64(j))
				binary.LittleEndian.PutUint64(payloads[j][8:], uint64(seq))
			}
			if done, err = dev.Write(now, lba, payloads); err == nil {
				wp[zone] += n
			}
		case p < 0.85:
			off := r.Int63n(zcap)
			n = min(n, zcap-off)
			if bad {
				off, n = zcap-1, 2 // crosses the zone end
			}
			var out [][]byte
			out, done, err = dev.Read(now, start+off, n)
			for _, s := range out {
				if s == nil {
					put(-1)
					continue
				}
				h.Write(s[:16])
			}
		case p < 0.93:
			if bad {
				zone = zones
			}
			if done, err = dev.ResetZone(now, zone); err == nil {
				wp[zone] = 0
			}
		default:
			done, err = dev.Flush(now, zone)
		}
		put(int64(done))
		if err != nil {
			put(1)
		} else {
			put(0)
		}
		if r.Float64() < 0.75 {
			now = sim.Max(now, done)
		} else {
			now = now.Add(1000)
		}
	}
	fmt.Fprintf(h, "%+v", dev.Array().Counters())
	first := dev.Array().Geometry().FirstNormalBlock()
	for sb := 0; sb < zones; sb++ {
		put(dev.Array().EraseCount(0, first+sb))
	}
	put(hostWritten())
	return h.Sum64()
}

// comparatorDigests were produced by this file at commit e0dbc1b, when FEMU
// and ConfZNS were two packages. Regenerate only by running the file at
// that commit, beside testdata/saved_by_pr14_comparators.json (go test -run
// TestComparatorsMatchParent -v prints them).
var comparatorDigests = map[string]uint64{
	"femu/small/0x1":           0x107a903332134f16,
	"femu/small/0xc0ffee":      0x9736370443bf777d,
	"femu/small/0x5eed5eed":    0xb49e05cc98fca295,
	"femu/paper/0x1":           0x43bd38610e647ef4,
	"femu/paper/0xc0ffee":      0x777d6c4ab19d76ab,
	"femu/paper/0x5eed5eed":    0xb925b083924db2fd,
	"femu/saved/0x1":           0xdd7f623cd513f70c,
	"femu/saved/0xc0ffee":      0x4d8a4a3b2ec4dd90,
	"femu/saved/0x5eed5eed":    0x3946bf9250004889,
	"confzns/small/0x1":        0x50e77bd1a9da71a4,
	"confzns/small/0xc0ffee":   0xe3aba40b64274ad,
	"confzns/small/0x5eed5eed": 0x8306f967e0297203,
	"confzns/paper/0x1":        0x2a813d4e9e3a5f76,
	"confzns/paper/0xc0ffee":   0x50289a41b708420,
	"confzns/paper/0x5eed5eed": 0xae056a3fbbe50abc,
	"confzns/saved/0x1":        0x551da3421d20749e,
	"confzns/saved/0xc0ffee":   0xcebd3a183c57cd87,
	"confzns/saved/0x5eed5eed": 0xf5bceba68b4b3a3e,
}

// TestComparatorsMatchParent pins the virtual-time behaviour of the two
// FEMU-lineage comparators to what the separate packages did: exactly one
// jitter draw per successful Write/Read/ResetZone (none in Flush, none on
// an error return), FEMU's wait for its zone buffer, ConfZNS's first-fit
// superblock bind order.
func TestComparatorsMatchParent(t *testing.T) {
	// saved is Small() with non-default FEMU and ConfZNS parameters (jitter
	// ranges, seeds, open-zone limits of 3 and 4), written by Save at
	// e0dbc1b: the file must load to the devices it described there.
	saved, err := Load(filepath.Join("testdata", "saved_by_pr14_comparators.json"))
	if err != nil {
		t.Fatalf("config saved by the previous version rejected: %v", err)
	}
	presets := []struct {
		name string
		cfg  DeviceConfig
	}{{"small", Small()}, {"paper", Paper()}, {"saved", saved}}
	for _, b := range comparatorBuilds {
		for _, p := range presets {
			for _, seed := range []uint64{1, 0xC0FFEE, 0x5EED5EED} {
				key := fmt.Sprintf("%s/%s/%#x", b.name, p.name, seed)
				dev, hostWritten, err := b.build(p.cfg)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := comparatorDigest(dev, hostWritten, seed, 6000)
				t.Logf("%q: %#x,", key, got)
				if want := comparatorDigests[key]; got != want {
					t.Errorf("%s: digest %#x, parent %#x", key, got, want)
				}
			}
		}
	}
}
