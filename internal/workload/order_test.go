package workload

import (
	"testing"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// orderedController is a host.Controller that counts submissions made at
// an instant earlier than one already made.
type orderedController struct {
	*host.Controller
	latest             sim.Time
	submits, backwards int
}

func (c *orderedController) Submit(at sim.Time, q int, req host.Request) (host.Tag, error) {
	c.submits++
	if at < c.latest {
		c.backwards++
	}
	c.latest = max(c.latest, at)
	return c.Controller.Submit(at, q, req)
}

// TestQueuedSubmissionsInTimeOrder holds the event loop to the premise of
// the controller's read fast path: one submitter whose submission instants
// never go backwards. Two threads at queue depth 4 each reap completions
// that land past the other thread's clock; a thread may submit only once it
// is again the earliest.
func TestQueuedSubmissionsInTimeOrder(t *testing.T) {
	for _, pat := range []Pattern{RandRead, SeqWrite} {
		f, err := config.Small().NewConZone()
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := host.New(f, host.Config{Queues: 2, Depth: 32})
		if err != nil {
			t.Fatal(err)
		}
		dev := &orderedController{Controller: ctrl}
		zb := dev.ZoneCapSectors() * units.Sector
		job := Job{
			Name: pat.String(), Pattern: pat,
			BlockBytes: 4 * units.KiB, NumJobs: 2, QueueDepth: 4,
			RangeBytes: 2 * zb, TotalBytesPerJob: 64 * 4 * units.KiB,
			PerOpOverhead: time.Microsecond, Seed: 3,
		}
		if pat == RandRead {
			if job.StartAt, err = Prefill(ctrl, 0, 0, 2*zb, false); err != nil {
				t.Fatal(err)
			}
		} else {
			job.BlockBytes, job.TotalBytesPerJob = 32*units.KiB, 64*32*units.KiB
		}
		res, err := Run(dev, job)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops != 128 || dev.submits != 128 {
			t.Fatalf("%v: %d ops from %d submissions, want 128 of each", pat, res.Ops, dev.submits)
		}
		if dev.backwards != 0 {
			t.Errorf("%v: %d of %d submissions earlier than one already made", pat, dev.backwards, dev.submits)
		}
	}
}
