package nand

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// Channel-sharded read execution. The read path is the emulator's hot loop,
// and its timing math is embarrassingly parallel by construction: a read
// touches exactly one chip resource and that chip's channel resource, and
// sim.Resource.Reserve mutates only the receiver. Partitioning chips by
// channel therefore partitions every resource a read reserves, and each
// shard can advance its own busyUntil timeline on a worker goroutine.
//
// The split is plan / execute / commit:
//
//   - plan (sequential, in the FTL) resolves mappings and emits ReadJobs;
//   - execute (this file, parallel or inline) performs only the Reserve
//     calls, in per-shard FIFO order — the global op order restricted to
//     the shard, which reserves each resource in exactly the sequence the
//     sequential path would;
//   - commit (sequential again) folds counters, Observe calls and obs
//     events back in global op order, so the observable stream is
//     bit-identical to the unsharded path.
//
// Cross-shard dependencies (a data read that must wait for its mapping
// fetch on another chip) are carried by sim.Fence tokens: the producing
// job resolves the fence with its completion time, the consuming job
// floors its start on Fence.Wait — an order-independent max.

// ReadJobKind distinguishes the two reservation patterns a staged read op
// can generate.
type ReadJobKind uint8

const (
	// JobDataRead senses one page and transfers XferBytes of it:
	// chip Reserve(tR) then channel Reserve(transfer).
	JobDataRead ReadJobKind = iota
	// JobMapRead charges Reads chained L2P mapping fetches on one chip:
	// per fetch, an SLC-mode sense plus a one-sector transfer.
	JobMapRead
)

// ReadJob is one shard-executable unit of reservation work. The planner
// fills the request fields; the executing shard fills the result fields.
type ReadJob struct {
	Kind ReadJobKind
	Chip int

	// At is the job's earliest start: the op's submission instant.
	At sim.Time

	// Dep, when non-nil, floors a data read's start on the op's mapping
	// fetches: start = max(At, Dep.Wait()).
	Dep *sim.Fence
	// Out, when non-nil, receives a map job's completion time.
	Out *sim.Fence

	// Data read request.
	Block, Page int
	XferBytes   int64

	// Map read request: number of chained fetches (1..3 by strategy).
	Reads int

	// Aux is an opaque planner tag (the FTL stores the LPA of a mapping
	// fetch here for its commit-time event).
	Aux int64

	// Results.
	Start      sim.Time    // data: sense start actually used
	Done       sim.Time    // completion of the job's last transfer
	FetchBegin [3]sim.Time // map: per-fetch begin
	FetchDone  [3]sim.Time // map: per-fetch done
}

// ReadSharder executes batches of ReadJobs across per-channel shards.
// It owns long-lived worker goroutines (started lazily on the first
// parallel batch, parked on channels between batches) so steady-state
// execution allocates nothing.
type ReadSharder struct {
	arr       *Array
	set       *sim.ShardSet
	nshards   int
	chipShard []int32   // chip -> shard
	queues    [][]int32 // per-shard job indices, reused across batches

	jobs    []ReadJob // current batch, visible to workers during Execute
	wake    []chan struct{}
	stop    chan struct{}
	done    sync.WaitGroup
	started bool
	alive   atomic.Int32 // worker goroutines that have not exited
}

// NewReadSharder partitions the array's chips into n per-channel shards
// (n <= channels; n <= 0 selects one shard per channel). Chips of one
// channel always land in the same shard, so a shard exclusively owns its
// chips' chip resources and channel resources.
func (a *Array) NewReadSharder(n int) *ReadSharder {
	ch := a.geo.Channels
	if n <= 0 || n > ch {
		n = ch
	}
	s := &ReadSharder{
		arr:       a,
		set:       sim.NewShardSet(n),
		nshards:   n,
		chipShard: make([]int32, a.geo.Chips()),
		queues:    make([][]int32, n),
		wake:      make([]chan struct{}, n),
		stop:      make(chan struct{}),
	}
	for chip := 0; chip < a.geo.Chips(); chip++ {
		shard := int32(a.geo.ChannelOf(chip) % n)
		s.chipShard[chip] = shard
		// Register both resources a read on this chip reserves; Assign
		// errors would mean channels straddle shards, which the modulo
		// mapping rules out.
		if err := s.set.Assign(a.chips[chip], int(shard)); err != nil {
			panic(err)
		}
		if err := s.set.Assign(a.chanTab[chip], int(shard)); err != nil {
			panic(err)
		}
	}
	for i := range s.wake {
		s.wake[i] = make(chan struct{}, 1)
	}
	return s
}

// Shards returns the shard count.
func (s *ReadSharder) Shards() int { return s.nshards }

// ShardOfChip reports which shard owns chip's resources.
func (s *ReadSharder) ShardOfChip(chip int) int { return int(s.chipShard[chip]) }

// ShardSet exposes the resource-ownership registry for invariant checks.
func (s *ReadSharder) ShardSet() *sim.ShardSet { return s.set }

// ReadsShardable reports whether reads may bypass the sequential path:
// fault injection, an armed power cut, or a dead (post-cut) array all
// route timing through paths (retry records, gates) that the shard
// executor deliberately does not model.
func (a *Array) ReadsShardable() bool {
	return a.faults == nil && !a.cutArmed && !a.dead
}

// Execute runs every job in the batch. With parallel=false (or a batch
// that only touches one shard) the jobs run inline in slice order — the
// global plan order, under which every Dep fence is resolved before it is
// waited on. With parallel=true each shard's jobs run on that shard's
// worker goroutine in slice order restricted to the shard; fences carry
// the cross-shard happens-before edges. Either way the resulting Reserve
// sequences per resource, and so every result field, are identical.
func (s *ReadSharder) Execute(jobs []ReadJob, parallel bool) {
	if len(jobs) == 0 {
		return
	}
	active := 0
	if parallel && s.nshards > 1 {
		for i := range s.queues {
			s.queues[i] = s.queues[i][:0]
		}
		for i := range jobs {
			q := s.chipShard[jobs[i].Chip]
			s.queues[q] = append(s.queues[q], int32(i))
			if len(s.queues[q]) == 1 {
				active++
			}
		}
	}
	if active < 2 {
		for i := range jobs {
			s.run(&jobs[i])
		}
		return
	}
	s.ensureWorkers()
	s.jobs = jobs
	s.done.Add(active)
	for q := range s.queues {
		if len(s.queues[q]) > 0 {
			s.wake[q] <- struct{}{}
		}
	}
	s.done.Wait()
	s.jobs = nil
}

// ensureWorkers starts the parked per-shard workers once.
func (s *ReadSharder) ensureWorkers() {
	if s.started {
		return
	}
	s.started = true
	s.alive.Add(int32(s.nshards))
	for q := 0; q < s.nshards; q++ {
		go s.worker(q)
	}
}

// Workers reports how many of the sharder's worker goroutines are alive:
// none before the first parallel batch, one per shard from then on — a Stop
// is owed — and none again once a Stop has taken effect.
func (s *ReadSharder) Workers() int { return int(s.alive.Load()) }

// Stop terminates the worker goroutines. Safe to call multiple times and
// with workers never started; must not race an Execute.
func (s *ReadSharder) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
}

func (s *ReadSharder) worker(q int) {
	defer s.alive.Add(-1)
	for {
		select {
		case <-s.wake[q]:
		case <-s.stop:
			return
		}
		jobs := s.jobs
		for _, i := range s.queues[q] {
			s.run(&jobs[i])
		}
		s.done.Done()
	}
}

// run performs one job's reservations. It touches only the job, the
// owning shard's resources, and immutable array state (latency tables,
// geometry, transfer-time table) — never counters, the engine clock, or
// the recorder; those fold in at commit.
func (s *ReadSharder) run(j *ReadJob) {
	a := s.arr
	switch j.Kind {
	case JobMapRead:
		lat := a.lat.For(SLCMode)
		done := j.At
		for r := 0; r < j.Reads; r++ {
			j.FetchBegin[r] = done
			_, senseEnd := a.chips[j.Chip].Reserve(done, lat.Read)
			done = a.transfer(senseEnd, j.Chip, units.Sector)
			j.FetchDone[r] = done
		}
		j.Done = done
		if j.Out != nil {
			j.Out.Resolve(done)
		}
	case JobDataRead:
		start := j.At
		if j.Dep != nil {
			if d := j.Dep.Wait(); d > start {
				start = d
			}
		}
		j.Start = start
		_, senseEnd := a.chips[j.Chip].Reserve(start, a.meta[j.Block].lat.Read)
		j.Done = a.transfer(senseEnd, j.Chip, j.XferBytes)
	}
}

// CommitReadJob folds one executed job's bookkeeping — page-read counters,
// engine clock observations, and NAND-read events — into the array, in
// exactly the order and with exactly the values the sequential readPage /
// ChargeMapRead calls would have produced. Callers invoke it per job in
// global plan order.
func (a *Array) CommitReadJob(j *ReadJob) {
	switch j.Kind {
	case JobMapRead:
		for r := 0; r < j.Reads; r++ {
			a.counters.PageReads++
			a.counters.BytesRead += units.Sector
			a.engine.Observe(j.FetchDone[r])
			a.record(obs.StageNANDRead, j.FetchBegin[r], j.FetchDone[r], j.Chip, units.Sector)
		}
	case JobDataRead:
		a.counters.PageReads++
		a.counters.BytesRead += j.XferBytes
		a.engine.Observe(j.Done)
		a.record(obs.StageNANDRead, j.Start, j.Done, j.Chip, j.XferBytes)
	}
}

// CheckShardPartition verifies the sharder's resource partition covers
// every chip and channel resource exactly once. Test support.
func (s *ReadSharder) CheckShardPartition() error {
	for chip := range s.arr.chips {
		own, ok := s.set.Owner(s.arr.chips[chip])
		if !ok || own != int(s.chipShard[chip]) {
			return fmt.Errorf("nand: chip %d resource owned by shard %d, want %d", chip, own, s.chipShard[chip])
		}
		cown, ok := s.set.Owner(s.arr.chanTab[chip])
		if !ok || cown != own {
			return fmt.Errorf("nand: chip %d and its channel owned by different shards (%d vs %d)", chip, own, cown)
		}
	}
	return nil
}
