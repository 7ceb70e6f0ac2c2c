package telemetry

import (
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/zns"
)

// ZoneHeat is one row of the per-zone heatmap: the host-visible zone
// descriptor joined with the media-side placement the FTL chose for it.
// Fractions are precomputed so exporters and plotting scripts need no
// knowledge of the geometry.
type ZoneHeat struct {
	Zone  int    `json:"zone"`
	Type  string `json:"type"`
	State string `json:"state"`

	WP       int64 `json:"wp"`       // absolute write-pointer LBA
	Written  int64 `json:"written"`  // sectors written since reset; a conventional zone's staged sectors
	Capacity int64 `json:"capacity"` // writable sectors

	// Media placement. SB is the bound normal superblock (-1 when the
	// zone lives entirely in SLC staging or is empty). Staged counts the
	// zone's SLC-resident sectors, every one of them live, so ValidStaged
	// repeats it; Pending is the staged part of the head region, the
	// partially-programmed unit awaiting completion.
	SB          int   `json:"sb"`
	Staged      int64 `json:"staged"`
	ValidStaged int64 `json:"valid_staged"`
	Pending     int64 `json:"pending"`

	// FillFrac is Written/Capacity. ValidFrac estimates the live-data
	// fraction: head-resident sectors (always live under sequential-write
	// semantics) plus staged sectors, over capacity. A conventional zone
	// has no write pointer, so what it holds is its fill.
	FillFrac  float64 `json:"fill_frac"`
	ValidFrac float64 `json:"valid_frac"`

	// EraseMean is the bound superblock's mean per-chip erase count — the
	// zone's current wear exposure, 0 when unbound.
	EraseMean float64 `json:"erase_mean"`
}

// SLCHeat is one row of the SLC staging heatmap: occupancy and wear of a
// single staging superblock.
type SLCHeat struct {
	SB        int     `json:"sb"`
	Free      bool    `json:"free"`
	Retired   bool    `json:"retired"`
	Valid     int64   `json:"valid"`    // live staged sectors in this superblock
	Capacity  int64   `json:"capacity"` // sectors per staging superblock
	ValidFrac float64 `json:"valid_frac"`
	EraseMean float64 `json:"erase_mean"`
}

// ZoneTable is the full spatial snapshot at one virtual instant: every
// zone's heat row plus every SLC staging superblock's. It is the payload
// behind /zones.json, conzone-inspect -zones, and the per-zone Prometheus
// metrics.
type ZoneTable struct {
	At    sim.Time   `json:"at_ns"`
	Zones []ZoneHeat `json:"zones"`
	SLC   []SLCHeat  `json:"slc"`
}

// CollectZones assembles the spatial snapshot from a live FTL at virtual
// instant now. Unlike Collect it allocates (two slices); callers take it on
// demand — a scrape, an inspect run, an experiment dump — never per-I/O.
func CollectZones(f *ftl.FTL, now sim.Time) ZoneTable {
	zones := f.Zones()
	staging := f.Staging()
	headCap := f.HeadSectors()

	t := ZoneTable{
		At:    now,
		Zones: make([]ZoneHeat, 0, zones.NumZones()),
		SLC:   make([]SLCHeat, 0, staging.SuperblockCount()),
	}

	for id := 0; id < zones.NumZones(); id++ {
		z, err := zones.Zone(id)
		if err != nil {
			continue
		}
		h := ZoneHeat{
			Zone:     id,
			Type:     z.Type.String(),
			State:    z.State.String(),
			WP:       z.WP,
			Written:  z.Written(),
			Capacity: z.Capacity,
			SB:       -1,
		}
		sb, staged, pend, err := f.ZoneCounts(id)
		if err == nil {
			h.SB = sb
			h.Staged = staged
			h.ValidStaged = staged
			h.Pending = pend
		}
		if z.Type == zns.Conventional {
			h.Written = staged
		}
		live := staged
		if h.SB >= 0 {
			// The head's written sectors, less the staged ones already
			// counted: a partial unit is in Written and in Staged.
			live += min(h.Written, headCap) - pend
			h.EraseMean = f.SBEraseMean(h.SB)
		}
		if z.Capacity > 0 {
			h.FillFrac = float64(h.Written) / float64(z.Capacity)
			h.ValidFrac = float64(live) / float64(z.Capacity)
		}
		t.Zones = append(t.Zones, h)
	}

	sbCap := staging.SectorsPerSuperblock()
	for sb := 0; sb < staging.SuperblockCount(); sb++ {
		h := SLCHeat{
			SB:        sb,
			Free:      staging.IsFree(sb),
			Retired:   staging.IsRetired(sb),
			Valid:     int64(staging.ValidCount(sb)),
			Capacity:  sbCap,
			EraseMean: f.SLCEraseMean(sb),
		}
		if sbCap > 0 {
			h.ValidFrac = float64(h.Valid) / float64(sbCap)
		}
		t.SLC = append(t.SLC, h)
	}
	return t
}
