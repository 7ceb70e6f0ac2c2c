package check

import (
	"fmt"
	"sort"

	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/obs"
)

// AuditHost verifies the bookkeeping identities of the multi-queue host
// interface against its own completion history. It audits the quiescent
// queueing state — call it with no submitter mid-flight, like Audit. The
// invariant names follow the audit[...] convention:
//
//	host-zone-lock  two write-class commands of one zone overlapped in
//	                flight, or a zone's write-lock horizon trails a
//	                completion it should cover
//	host-append     a completed Zone Append reported an LBA outside its
//	                zone, or two queued appends of a zone overlap
//	host-tags       the in-flight tag set is inconsistent: a queue's
//	                outstanding counter disagrees with its pending and
//	                completion-queue contents, a tag repeats, or a tag
//	                was never issued
//
// When the backend has a lifecycle recorder attached, violations carry the
// flight recorder's tail, like Audit's.
func AuditHost(c *host.Controller) error {
	err := auditHostState(c.DebugSnapshot(), c.ZoneCapSectors())
	if err == nil {
		return nil
	}
	if tail := obs.FormatTail(c.Recorder(), auditTailEvents); tail != "" {
		return fmt.Errorf("%w\nflight recorder (last %d lifecycle events):\n%s",
			err, len(c.Recorder().Tail(auditTailEvents)), tail)
	}
	return err
}

// auditHostState is the audit proper: a pure function of one snapshot and
// the zone capacity, so the corruption tests corrupt a snapshot value and the
// live controller carries no mutators.
func auditHostState(st host.DebugState, zoneCap int64) error {
	if err := auditHostTags(st); err != nil {
		return err
	}
	if err := auditHostZoneLocks(st); err != nil {
		return err
	}
	return auditHostAppends(st, zoneCap)
}

// auditHostTags checks the in-flight tag accounting: every tag unique,
// every tag below the issue watermark, and each queue's outstanding
// counter equal to its pending commands plus unreaped completions.
func auditHostTags(st host.DebugState) error {
	seen := make(map[host.Tag]string)
	note := func(tag host.Tag, where string) error {
		if tag == 0 || tag >= st.NextTag {
			return fmt.Errorf("audit[host-tags]: %s holds tag %d outside the issued range [1,%d)",
				where, tag, st.NextTag)
		}
		if prev, dup := seen[tag]; dup {
			return fmt.Errorf("audit[host-tags]: tag %d appears twice (%s and %s)", tag, prev, where)
		}
		seen[tag] = where
		return nil
	}

	pendingPerQ := make([]int, len(st.Outstanding))
	for _, p := range st.Pending {
		if p.Queue < 0 || p.Queue >= len(pendingPerQ) {
			return fmt.Errorf("audit[host-tags]: pending tag %d names queue %d of %d", p.Tag, p.Queue, len(pendingPerQ))
		}
		pendingPerQ[p.Queue]++
		if err := note(p.Tag, fmt.Sprintf("queue %d pending", p.Queue)); err != nil {
			return err
		}
	}
	for q, cq := range st.Completions {
		for _, comp := range cq {
			if comp.Queue != q {
				return fmt.Errorf("audit[host-tags]: completion of tag %d sits in queue %d but names queue %d",
					comp.Tag, q, comp.Queue)
			}
			if err := note(comp.Tag, fmt.Sprintf("queue %d completions", q)); err != nil {
				return err
			}
		}
	}
	for q := range st.Outstanding {
		holds := pendingPerQ[q] + len(st.Completions[q])
		if st.Outstanding[q] != holds {
			return fmt.Errorf("audit[host-tags]: queue %d outstanding counter is %d but the queue holds %d commands (%d pending + %d unreaped completions)",
				q, st.Outstanding[q], holds, pendingPerQ[q], len(st.Completions[q]))
		}
	}
	return nil
}

// auditHostZoneLocks checks per-zone write serialization: among this
// controller's unreaped completions, no two write-class commands of one
// zone may have overlapping [Dispatched, Done) in-flight intervals, and
// every zone's write-lock horizon must cover its latest completion. A
// flush-all (Zone == -1) is a barrier and counts against every zone.
type flightSpan struct {
	tag        host.Tag
	op         host.Op
	begin, end int64
}

func auditHostZoneLocks(st host.DebugState) error {
	perZone := make(map[int][]flightSpan)
	for _, cq := range st.Completions {
		for _, comp := range cq {
			if !comp.Op.WriteClass() {
				continue
			}
			span := flightSpan{tag: comp.Tag, op: comp.Op, begin: int64(comp.Dispatched), end: int64(comp.Done)}
			if comp.Zone < 0 {
				for z := 0; z < len(st.ZoneFree); z++ {
					perZone[z] = append(perZone[z], span)
				}
				continue
			}
			perZone[comp.Zone] = append(perZone[comp.Zone], span)
			if free := int64(st.ZoneFree[comp.Zone]); free < int64(comp.Done) {
				return fmt.Errorf("audit[host-zone-lock]: zone %d write lock frees at %d but %v tag %d completed at %d",
					comp.Zone, free, comp.Op, comp.Tag, int64(comp.Done))
			}
		}
	}
	for zone, spans := range perZone {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].begin != spans[j].begin {
				return spans[i].begin < spans[j].begin
			}
			return spans[i].tag < spans[j].tag
		})
		for i := 1; i < len(spans); i++ {
			prev, cur := spans[i-1], spans[i]
			if cur.begin < prev.end {
				return fmt.Errorf("audit[host-zone-lock]: zone %d has two in-flight write-class commands: %v tag %d [%d,%d) overlaps %v tag %d [%d,%d)",
					zone, prev.op, prev.tag, prev.begin, prev.end, cur.op, cur.tag, cur.begin, cur.end)
			}
		}
	}
	return nil
}

// auditHostAppends checks completed Zone Appends: every assigned LBA must
// lie inside the target zone with the whole payload, and no two unreaped
// appends of one zone may claim overlapping sector ranges (each append's
// assignment is unique — the point of the command).
func auditHostAppends(st host.DebugState, zoneCap int64) error {
	type extent struct {
		tag      host.Tag
		lba, end int64
	}
	perZone := make(map[int][]extent)
	for _, cq := range st.Completions {
		for _, comp := range cq {
			if comp.Op != host.OpAppend || comp.Err != nil {
				continue
			}
			zoneStart := int64(comp.Zone) * zoneCap
			if comp.LBA < zoneStart || comp.LBA+comp.N > zoneStart+zoneCap {
				return fmt.Errorf("audit[host-append]: append tag %d to zone %d was assigned [%d,%d) outside the zone's sectors [%d,%d)",
					comp.Tag, comp.Zone, comp.LBA, comp.LBA+comp.N, zoneStart, zoneStart+zoneCap)
			}
			perZone[comp.Zone] = append(perZone[comp.Zone], extent{tag: comp.Tag, lba: comp.LBA, end: comp.LBA + comp.N})
		}
	}
	for zone, exts := range perZone {
		sort.Slice(exts, func(i, j int) bool {
			if exts[i].lba != exts[j].lba {
				return exts[i].lba < exts[j].lba
			}
			return exts[i].tag < exts[j].tag
		})
		for i := 1; i < len(exts); i++ {
			prev, cur := exts[i-1], exts[i]
			if cur.lba < prev.end {
				return fmt.Errorf("audit[host-append]: zone %d appends tag %d [%d,%d) and tag %d [%d,%d) claim overlapping LBAs",
					zone, prev.tag, prev.lba, prev.end, cur.tag, cur.lba, cur.end)
			}
		}
	}
	return nil
}
