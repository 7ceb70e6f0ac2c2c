package ftl

import (
	"fmt"
	"runtime"

	"github.com/conzone/conzone/internal/mapping"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// Channel-sharded read staging: the plan / execute / commit split of
// ReadInto. The host stages a run of consecutive read submissions here and
// drains them at its next fence (a poll, a wait, or a write-class
// submission). Plan resolves each op sequentially in tag order — write
// buffer, L2P cache, mapping fetch planning, payload lookup, per-page run
// batching — touching exactly the mutable FTL state ReadInto would, in the
// same order. Execute performs only the sim reservations, per shard.
// Commit replays counters, clock observations and observability events in
// global tag order, so the resulting op stream, media state, telemetry and
// trace output are bit-identical to the sequential path at any shard count
// and any GOMAXPROCS.
//
// Equivalence argument, step by step:
//
//  1. Plan order is submission (tag) order, and execute/commit never touch
//     the state plan reads (cache LRU, map bits, write buffer, media
//     payloads, stats) — so each op's plan sees exactly the state it would
//     have seen had the previous op fully completed first.
//  2. A read reserves only its chip and that chip's channel; both belong
//     to one shard. Per-shard job order is tag order restricted to the
//     shard, so every resource sees the same Reserve sequence — hence the
//     same busyUntil evolution — as sequential execution.
//  3. The only cross-op timing inputs are each op's submission instant
//     (fixed at plan) and its own mapping-fetch fence (an order-
//     independent max). No job reads another op's result.
//  4. Commit runs in tag order and emits the identical bookkeeping
//     sequence per op, so counters, Engine.Observe order, and the
//     recorder's event stream match the sequential path byte for byte.

// parallelDrainMin is the batch size (in jobs) below which draining always
// runs inline: waking workers costs more than tens of reservations, and
// the choice is free — strategy cannot change results (see Execute).
const parallelDrainMin = 32

// stagedRead is one planned, not-yet-executed host read.
type stagedRead struct {
	at   sim.Time
	lba  int64
	n    int64
	zone int
	err  error // plan-phase failure, delivered at commit

	jobFrom int32 // first job in FTL.batch.jobs
	nfetch  int32 // map-fetch jobs at jobFrom
	ndata   int32 // data-read jobs following the fetches
}

// readBatch owns the reusable staging storage. All slices are recycled
// across drains so steady-state staging allocates nothing.
type readBatch struct {
	ops    []stagedRead
	jobs   []nandReadJob
	fences []*sim.Fence
	nfence int
}

// Local aliases for the NAND-layer job model.
type nandReadJob = nand.ReadJob

const (
	jobDataRead = nand.JobDataRead
	jobMapRead  = nand.JobMapRead
)

// StagedReads reports how many planned reads await DrainStagedReads.
func (f *FTL) StagedReads() int { return len(f.batch.ops) }

// ReadsShardable reports whether reads may take the staged path right now.
// False routes the host to the sequential ReadInto, which models the
// fault-injection and power-cut machinery the shard executor does not.
// A single-proc runtime (GOMAXPROCS=1 at construction) also answers
// false: the parallel executor could never engage, so staging would buy
// only its own bookkeeping — and the commit replay makes the two paths
// observably identical anyway, so the choice is free.
func (f *FTL) ReadsShardable() bool {
	return f.sharder != nil && f.procs > 1 && f.arr.ReadsShardable()
}

// ReadShards returns the active shard count (0 when sharding is disabled).
func (f *FTL) ReadShards() int {
	if f.sharder == nil {
		return 0
	}
	return f.sharder.Shards()
}

// StageRead plans one host read for deferred execution: the sequential
// prefix of ReadInto (validation, buffer hits, cache lookups, fetch
// planning with cache insertion, payload resolution, page-run batching)
// runs now, in submission order; the reservation work is queued as shard
// jobs. dst is filled with the same borrowed payload views ReadInto would
// produce. The caller must drain before any non-read device operation.
func (f *FTL) StageRead(at sim.Time, lba, n int64, dst [][]byte) {
	b := &f.batch
	b.ops = append(b.ops, stagedRead{at: at, lba: lba, n: n, zone: -1, jobFrom: int32(len(b.jobs))})
	op := &b.ops[len(b.ops)-1]
	if err := f.checkPower(at); err != nil {
		op.err = err
		return
	}
	zone, err := f.zones.ValidateRead(lba, n)
	if err != nil {
		op.err = err
		return
	}
	op.zone = zone
	if int64(len(dst)) != n {
		op.err = fmt.Errorf("ftl: ReadInto dst holds %d entries, want %d", len(dst), n)
		return
	}

	var fence *sim.Fence
	f.readRuns.Reset()
	for i := int64(0); i < n; i++ {
		l := lba + i
		dst[i] = nil
		if p, ok := f.bufs.ReadSector(zone, l); ok {
			dst[i] = p
			f.stats.BufferReads++
			continue
		}
		psn, hit := f.cache.Lookup(l)
		if !hit {
			var ok bool
			psn, ok = f.stageFetch(at, l, op)
			if fence == nil {
				fence = f.getFence()
			}
			if !ok {
				continue // unwritten sector: zeros
			}
		}
		addr, err := f.psnLoc(psn)
		if err != nil {
			// Mirror the sequential path's mid-op failure: mapping
			// fetches already planned stay charged; no data pages are
			// read and no completion-side bookkeeping happens.
			op.err = err
			f.armFence(op, fence)
			return
		}
		dst[i] = f.arr.Payload(f.ppaOf(addr))
		f.readRuns.Add(addr)
	}
	runs := f.readRuns.Runs()
	f.armFence(op, fence)
	for j := range runs {
		b.jobs = append(b.jobs, nandReadJob{
			Kind: jobDataRead, Chip: runs[j].Chip, At: at, Dep: fence,
			Block: runs[j].Block, Page: runs[j].Page, XferBytes: runs[j].Bytes,
		})
	}
	op.ndata = int32(len(runs))
	f.stats.HostReadBytes += n * units.Sector
}

// stageFetch is fetchMapping's plan half: it resolves the table entry,
// counts the strategy's flash fetches, updates the cache and stats exactly
// as the sequential path does, and queues one map-read job. The job's Aux
// carries the LPA for the commit-time StageMapFetch event.
func (f *FTL) stageFetch(at sim.Time, lpa int64, op *stagedRead) (mapping.PSN, bool) {
	base, gran, basePSN, ok := f.table.Effective(lpa)
	reads := 0
	switch f.params.Search {
	case Bitmap:
		reads = 1
	case Multiple:
		switch {
		case !ok:
			reads = 3
		case gran == mapping.Zone:
			reads = 1
		case gran == mapping.Chunk:
			reads = 2
		default:
			reads = 3
		}
	case Pinned:
		if ok && gran != mapping.Page {
			reads = 2
			if gran == mapping.Zone {
				reads = 1
			}
		} else {
			reads = 1
		}
	}
	f.batch.jobs = append(f.batch.jobs, nandReadJob{
		Kind: jobMapRead, Chip: f.mapChip(base), At: at, Reads: reads, Aux: lpa,
	})
	op.nfetch++
	f.stats.MapFetches++
	f.stats.MapFetchReads += int64(reads)
	if !ok {
		return mapping.InvalidPSN, false
	}
	pin := f.params.Search == Pinned && gran != mapping.Page
	f.cache.Insert(gran, base, basePSN, pin)
	psn := basePSN
	if gran != mapping.Page {
		psn += mapping.PSN(lpa - base)
	}
	return psn, true
}

// getFence returns a recycled fence for the current op.
func (f *FTL) getFence() *sim.Fence {
	b := &f.batch
	if b.nfence < len(b.fences) {
		fe := b.fences[b.nfence]
		b.nfence++
		return fe
	}
	fe := new(sim.Fence)
	b.fences = append(b.fences, fe)
	b.nfence++
	return fe
}

// armFence wires the op's fetch jobs as the fence's producers and arms it.
// Arming happens after planning (and before any execution), so the
// producer count is final when the first Resolve can run.
func (f *FTL) armFence(op *stagedRead, fence *sim.Fence) {
	if fence == nil {
		return
	}
	fence.Arm(int(op.nfetch), op.at)
	for k := op.jobFrom; k < op.jobFrom+op.nfetch; k++ {
		f.batch.jobs[k].Out = fence
	}
}

// fetchCause maps the configured search strategy to its event cause.
func (f *FTL) fetchCause() obs.Cause {
	switch f.params.Search {
	case Bitmap:
		return obs.CauseBitmap
	case Multiple:
		return obs.CauseMultiple
	case Pinned:
		return obs.CausePinned
	}
	return obs.CauseNone
}

// DrainStagedReads executes every staged read and commits results in
// submission order: emit is called once per staged op (index in staging
// order) with the op's completion time and error — the deterministic
// (readyTime, tag) completion merge, since commit order is tag order and
// completion times are independent of execution strategy.
func (f *FTL) DrainStagedReads(emit func(i int, done sim.Time, err error)) {
	b := &f.batch
	if len(b.ops) == 0 {
		return
	}
	parallel := len(b.jobs) >= parallelDrainMin && f.procs > 1
	hadWorkers := f.sharder.Workers() > 0
	f.sharder.Execute(b.jobs, parallel)
	if !hadWorkers && f.sharder.Workers() > 0 {
		// The parked workers reference the sharder, not the FTL, so the
		// FTL stays collectable and its finalizer can release them. Only a
		// device that started workers carries one: a finalizer keeps the
		// FTL and every table it owns alive for an extra collection cycle.
		runtime.SetFinalizer(f, func(f *FTL) { f.sharder.Stop() })
	}
	for i := range b.ops {
		op := &b.ops[i]
		fetchDone := op.at
		for k := op.jobFrom; k < op.jobFrom+op.nfetch; k++ {
			j := &b.jobs[k]
			f.arr.CommitReadJob(j)
			if f.obs != nil {
				f.record(obs.StageMapFetch, f.fetchCause(), op.at, j.Done, -1, j.Aux, int64(j.Reads))
			}
			if j.Done > fetchDone {
				fetchDone = j.Done
			}
		}
		if op.err != nil {
			emit(i, op.at, op.err)
			continue
		}
		start := fetchDone
		done := op.at
		for k := op.jobFrom + op.nfetch; k < op.jobFrom+op.nfetch+op.ndata; k++ {
			j := &b.jobs[k]
			f.arr.CommitReadJob(j)
			if j.Done > done {
				done = j.Done
			}
		}
		if op.ndata > 0 {
			f.record(obs.StageDataRead, obs.CauseNone, start, done, op.zone, op.lba, int64(op.ndata))
		}
		if fetchDone > done {
			done = fetchDone
		}
		f.arr.Engine().Observe(done)
		f.record(obs.StageHostRead, obs.CauseNone, op.at, done, op.zone, op.lba, op.n)
		emit(i, done, nil)
	}
	b.ops = b.ops[:0]
	// Stale fence pointers in the truncated capacity keep nothing extra
	// alive (fences are pooled in b.fences), so no clearing pass.
	b.jobs = b.jobs[:0]
	b.nfence = 0
}
