package ftl

import (
	"fmt"

	"github.com/conzone/conzone/internal/mapping"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// Read is ReadInto into a fresh n-entry container: the allocating form,
// kept because the frozen bench/ still names it through host.Backend.
// Every other caller in the module reads through ReadInto.
func (f *FTL) Read(at sim.Time, lba, n int64) ([][]byte, sim.Time, error) {
	out := make([][]byte, n)
	done, err := f.ReadInto(at, lba, n, out)
	if err != nil {
		return nil, at, err
	}
	return out, done, nil
}

// ReadInto handles a host read of n sectors at lba (paper Fig. 4): dst must
// hold exactly n entries and is filled with the per-sector payloads (nil
// entries when the sector was written without payload or never written).
// It returns the completion time of the slowest flash operation involved:
// data page reads plus any L2P mapping fetches.
//
// The payload entries are borrowed views — media slabs (recycled when the
// sector is overwritten or its block erased) or write-buffer slices. They
// are stable until the next device operation; callers keeping the bytes
// longer must copy them at the host boundary.
func (f *FTL) ReadInto(at sim.Time, lba, n int64, dst [][]byte) (sim.Time, error) {
	if err := f.checkPower(at); err != nil {
		return at, err
	}
	zone, err := f.zones.ValidateRead(lba, n)
	if err != nil {
		return at, err
	}
	if int64(len(dst)) != n {
		return at, fmt.Errorf("ftl: ReadInto dst holds %d entries, want %d", len(dst), n)
	}

	// Per-page batching of media reads: sectors that resolve to the same
	// flash page cost one sense plus the transfer of the needed sectors.
	f.readRuns.Reset()
	fetchDone := at
	for i := range dst {
		l := lba + int64(i)
		// Data still in the volatile write buffer is served from RAM.
		if p, ok := f.bufs.ReadSector(zone, l); ok {
			dst[i] = p
			f.stats.BufferReads++
			continue
		}
		// I: query the L2P cache (LZA, then LCA, then LPA).
		psn, hit := f.cache.Lookup(l)
		if !hit {
			// II: fetch the entry from the in-flash mapping table.
			var d sim.Time
			var ok bool
			psn, d, ok, err = f.fetchMapping(at, l)
			if err != nil {
				return at, err
			}
			fetchDone = max(fetchDone, d)
			if !ok {
				dst[i] = nil // unwritten sector: zeros
				continue
			}
		}
		addr, err := f.psnLoc(psn)
		if err != nil {
			return at, err
		}
		dst[i] = f.arr.Payload(f.ppaOf(addr))
		f.readRuns.Add(addr)
	}

	// III: read the data pages. Reads whose mapping had to be fetched
	// cannot start before the fetch completes; for simplicity the whole
	// batch starts after the slowest fetch, which matches the paper's
	// observation that misses make read latency unstable.
	done := fetchDone
	runs := f.readRuns.Runs()
	for j := range runs {
		end, err := f.arr.ReadPage(fetchDone, runs[j].Chip, runs[j].Block, runs[j].Page, runs[j].Bytes)
		if err != nil {
			return at, err
		}
		done = max(done, end)
	}
	if len(runs) > 0 && f.Recorder() != nil {
		f.record(obs.StageDataRead, obs.CauseNone, fetchDone, done, zone, lba, int64(len(runs)))
	}
	f.stats.HostReadBytes += n * units.Sector
	f.arr.Engine().Observe(done)
	if f.Recorder() != nil {
		f.record(obs.StageHostRead, obs.CauseNone, at, done, zone, lba, n)
	}
	return done, nil
}

// fetchMapping loads the L2P entry covering lpa from the in-flash mapping
// table after a cache miss, charging flash reads according to the search
// strategy, and inserts the fetched entry into the cache (Fig. 4 ④).
// It returns the sector's PSN, the fetch completion time, and whether the
// sector is mapped.
func (f *FTL) fetchMapping(at sim.Time, lpa int64) (mapping.PSN, sim.Time, bool, error) {
	base, gran, basePSN, ok := f.table.Effective(lpa)
	reads := 0
	switch f.params.Search {
	case Bitmap:
		// The SRAM map-bits bitmap gives the granularity up front: one
		// fetch from the right translation page.
		reads = 1
	case Multiple:
		// Probe widest-first from flash: assume zone aggregation, check
		// the fetched entry's map bits, then chunk, then page (paper
		// §III-C). The number of fetches depends on the actual level.
		switch {
		case !ok:
			reads = 3 // all three probes fail before concluding unmapped
		case gran == mapping.Zone:
			reads = 1
		case gran == mapping.Chunk:
			reads = 2
		default:
			reads = 3
		}
	case Pinned:
		// Aggregated entries are pinned at creation, so misses should
		// only concern page-granularity entries: one fetch. If an
		// aggregated entry was demoted out of the cache (GC relocation),
		// fall back to the multiple-probe cost for honesty.
		if ok && gran != mapping.Page {
			reads = 2
			if gran == mapping.Zone {
				reads = 1
			}
		} else {
			reads = 1
		}
	}
	done := at
	for i := 0; i < reads; i++ {
		d, err := f.arr.ChargeMapRead(done, f.mapChip(base))
		if err != nil {
			return mapping.InvalidPSN, at, false, err
		}
		done = d
	}
	f.stats.MapFetches++
	f.stats.MapFetchReads += int64(reads)
	if f.Recorder() != nil {
		var cause obs.Cause
		switch f.params.Search {
		case Bitmap:
			cause = obs.CauseBitmap
		case Multiple:
			cause = obs.CauseMultiple
		case Pinned:
			cause = obs.CausePinned
		}
		f.record(obs.StageMapFetch, cause, at, done, -1, lpa, int64(reads))
	}
	if !ok {
		return mapping.InvalidPSN, done, false, nil
	}
	pin := f.params.Search == Pinned && gran != mapping.Page
	f.cache.Insert(gran, base, basePSN, pin)
	psn := basePSN
	if gran != mapping.Page {
		psn += mapping.PSN(lpa - base)
	}
	return psn, done, true, nil
}
