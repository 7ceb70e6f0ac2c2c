package nand

import (
	"testing"
	"time"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

func shardTestArray(t *testing.T) *Array {
	t.Helper()
	a, err := NewArray(testGeometry(), DefaultLatencies(), sim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestReadSharderPartition proves the channel-modulo chip assignment yields
// a disjoint resource partition: every chip resource and channel resource
// is owned by exactly one shard, chips of a channel share that shard, and
// the invariant holds at every legal shard count.
func TestReadSharderPartition(t *testing.T) {
	a := shardTestArray(t)
	ch := a.geo.Channels
	for _, n := range []int{0, 1, 2, ch, ch + 5, -3} {
		s := a.NewReadSharder(n)
		want := n
		if n <= 0 || n > ch {
			want = ch
		}
		if s.Shards() != want {
			t.Errorf("NewReadSharder(%d).Shards() = %d, want %d", n, s.Shards(), want)
		}
		if err := s.CheckShardPartition(); err != nil {
			t.Errorf("NewReadSharder(%d): %v", n, err)
		}
		for chip := 0; chip < a.geo.Chips(); chip++ {
			if got, exp := s.ShardOfChip(chip), a.geo.ChannelOf(chip)%want; got != exp {
				t.Errorf("n=%d: ShardOfChip(%d) = %d, want %d", n, chip, got, exp)
			}
		}
		s.Stop()
		s.Stop() // idempotent
	}
}

// waitWorkers waits until exactly n of s's worker goroutines are alive.
func waitWorkers(t *testing.T, s *ReadSharder, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); s.Workers() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d shard worker goroutines alive, want %d", s.Workers(), n)
		}
	}
}

// TestReadSharderStopAfterStart covers the other half of Stop's contract:
// with workers running (a parallel batch over two shards started them), a
// first Stop makes every worker exit and a second is a no-op.
func TestReadSharderStopAfterStart(t *testing.T) {
	a := shardTestArray(t)
	s := a.NewReadSharder(0)
	if s.Workers() != 0 {
		t.Fatal("a fresh sharder reports live workers")
	}
	jobs := make([]ReadJob, 2*a.geo.Chips())
	for i := range jobs {
		jobs[i] = ReadJob{Kind: JobDataRead, Chip: i % a.geo.Chips(), XferBytes: units.Sector}
	}
	s.Execute(jobs, true)
	if s.Workers() != s.Shards() {
		t.Fatalf("a parallel batch over two shards left %d workers, want %d", s.Workers(), s.Shards())
	}
	s.Stop()
	s.Stop()
	waitWorkers(t, s, 0)
}

// TestReadSharderExecuteEquivalence runs the same job batch inline and in
// parallel (fresh arrays, identical initial state) and requires identical
// result fields and identical counters after commit — the executor-level
// version of the end-to-end determinism pin.
func TestReadSharderExecuteEquivalence(t *testing.T) {
	build := func() (*Array, *ReadSharder, []ReadJob, []*sim.Fence) {
		a := shardTestArray(t)
		s := a.NewReadSharder(0)
		var jobs []ReadJob
		var fences []*sim.Fence
		// Interleave map fetches and dependent data reads across every chip,
		// with cross-shard dependencies: chip c's data read waits on a map
		// fetch executed on the next chip (usually a different channel).
		chips := a.geo.Chips()
		for op := 0; op < 3*chips; op++ {
			chip := op % chips
			at := sim.Time(op * 500)
			fe := new(sim.Fence)
			fences = append(fences, fe)
			jobs = append(jobs, ReadJob{
				Kind: JobMapRead, Chip: (chip + 1) % chips, At: at,
				Reads: 1 + op%3, Out: fe, Aux: int64(op),
			})
			jobs = append(jobs, ReadJob{
				Kind: JobDataRead, Chip: chip, At: at, Dep: fe,
				Block: op % a.geo.BlocksPerChip, Page: 0, XferBytes: units.Sector * int64(1+op%4),
			})
			fe.Arm(1, at)
		}
		return a, s, jobs, fences
	}

	aSeq, sSeq, jSeq, _ := build()
	sSeq.Execute(jSeq, false)
	for i := range jSeq {
		aSeq.CommitReadJob(&jSeq[i])
	}

	aPar, sPar, jPar, _ := build()
	sPar.Execute(jPar, true)
	defer sPar.Stop()
	for i := range jPar {
		aPar.CommitReadJob(&jPar[i])
	}

	for i := range jSeq {
		a, b := &jSeq[i], &jPar[i]
		if a.Start != b.Start || a.Done != b.Done || a.FetchBegin != b.FetchBegin || a.FetchDone != b.FetchDone {
			t.Fatalf("job %d diverged: inline {start %d done %d} parallel {start %d done %d}",
				i, a.Start, a.Done, b.Start, b.Done)
		}
	}
	if aSeq.Counters() != aPar.Counters() {
		t.Fatalf("counters diverged:\n inline   %+v\n parallel %+v", aSeq.Counters(), aPar.Counters())
	}
	if aSeq.engine.Now() != aPar.engine.Now() {
		t.Fatalf("engine clocks diverged: inline %d, parallel %d", aSeq.engine.Now(), aPar.engine.Now())
	}
}

// TestReadsShardable pins the sequential-path gates: fault injection and
// power-cut machinery force reads off the sharded path.
func TestReadsShardable(t *testing.T) {
	a := shardTestArray(t)
	if !a.ReadsShardable() {
		t.Fatal("plain array not shardable")
	}
	a.cutArmed = true
	if a.ReadsShardable() {
		t.Fatal("shardable with a power cut armed")
	}
	a.cutArmed = false
	a.dead = true
	if a.ReadsShardable() {
		t.Fatal("shardable after a power cut")
	}
}
