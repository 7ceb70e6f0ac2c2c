package ftl

import (
	"runtime"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/sim"
)

// waitFor polls cond, collecting garbage between tries, until it holds or
// the deadline passes.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestShardWorkersStopWhenDeviceCollected pins the finalizer's scope. A
// device that never drained a read burst in parallel started no workers and
// carries no finalizer — a finalizer would keep it and every table it owns
// alive for an extra collection cycle, which a fleet pays two thousand
// times. A device that did go parallel must still release its parked
// workers once it is unreachable.
func TestShardWorkersStopWhenDeviceCollected(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // before New: the FTL caches this
	defer runtime.GOMAXPROCS(prev)

	// stage plans n single-sector reads over the first zone and drains them.
	stage := func(f *FTL, at sim.Time, n int) {
		dst := make([][]byte, 1)
		for i := 0; i < n; i++ {
			f.StageRead(at, int64(i*7)%f.sbSectors, 1, dst)
		}
		f.DrainStagedReads(func(i int, done sim.Time, err error) {
			if err != nil {
				t.Fatalf("staged read %d: %v", i, err)
			}
		})
	}
	fill := func() (*FTL, sim.Time) {
		f := newTestFTL(t)
		at, err := f.Write(0, 0, make([][]byte, f.sbSectors))
		if err != nil {
			t.Fatal(err)
		}
		if at, err = f.FlushAll(at); err != nil {
			t.Fatal(err)
		}
		if !f.ReadsShardable() {
			t.Fatal("test device does not stage reads")
		}
		return f, at
	}

	t.Run("never parallel", func(t *testing.T) {
		f, at := fill()
		stage(f, at, parallelDrainMin/4) // drains inline
		if f.sharder.Workers() != 0 {
			t.Fatal("a small burst started the shard workers")
		}
		// SetFinalizer aborts the process if f already carries one.
		collected := make(chan struct{})
		runtime.SetFinalizer(f, func(*FTL) { close(collected) })
		f = nil
		if !waitFor(func() bool {
			select {
			case <-collected:
				return true
			default:
				return false
			}
		}) {
			t.Fatal("device was never collected")
		}
	})

	t.Run("went parallel", func(t *testing.T) {
		f, at := fill()
		stage(f, at, 4*parallelDrainMin)
		// The workers reference the sharder, never the FTL: holding it does
		// not keep the device alive.
		s := f.sharder
		if got := s.Workers(); got != s.Shards() {
			t.Fatalf("a large burst over every chip left %d parked workers, want %d", got, s.Shards())
		}
		stage(f, at, 4*parallelDrainMin) // a second parallel drain re-arms nothing
		f = nil
		if !waitFor(func() bool { return s.Workers() == 0 }) {
			t.Fatalf("%d shard workers still parked after the device was collected", s.Workers())
		}
	})
}
