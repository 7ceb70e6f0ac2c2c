package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// The queue-depth sweep measures what the multi-queue host interface adds
// over the synchronous API: 4 KiB random reads scale with outstanding
// commands because independent reads fan out across idle chips, while
// sequential writes into a single zone stay flat — the zone write lock
// serializes them no matter how many are queued (mq-deadline semantics).

// qdDepths are the queue depths the sweep visits.
var qdDepths = []int{1, 2, 4, 8, 16}

// qdPoint is one (depth, job) measurement of the sweep.
type qdPoint struct {
	Depth int           `json:"depth"`
	IOPS  float64       `json:"iops"`
	BW    float64       `json:"bandwidth_mibps"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// qdSweepDoc is the sweep's JSON artifact.
type qdSweepDoc struct {
	Depths    []int     `json:"depths"`
	RandRead  []qdPoint `json:"randread_4k"`
	SeqWrite  []qdPoint `json:"seqwrite_1zone"`
	ReadScale float64   `json:"read_scaling"`  // IOPS at max depth / IOPS at depth 1
	WriteVar  float64   `json:"write_scaling"` // BW at max depth / BW at depth 1
}

// runQDSweep measures 4 KiB random reads and single-zone sequential
// writes at each queue depth, reporting IOPS and completion-latency
// percentiles per depth.
func runQDSweep(cfg config.DeviceConfig, opt Options) (Report, error) {
	volume := int64(16 * units.MiB)
	if opt.Reduced() {
		volume = 4 * units.MiB
	}
	probe, err := cfg.NewConZone()
	if err != nil {
		return Report{}, err
	}
	zoneBytes := probe.ZoneCapSectors() * units.Sector
	readRange := min64(4*zoneBytes, probe.TotalSectors()*units.Sector)
	wvol := volume
	if zoneBytes < wvol {
		wvol = units.AlignDown(zoneBytes, seqBS)
	}

	// measure runs job at its queue depth on a fresh device and controller,
	// so depths never share media state, over the prefilled first prefill
	// bytes.
	measure := func(job workload.Job, prefill int64) (qdPoint, error) {
		f, err := cfg.NewConZone()
		if err != nil {
			return qdPoint{}, err
		}
		hostDepth := job.QueueDepth
		if hostDepth < host.DefaultDepth {
			hostDepth = host.DefaultDepth
		}
		ctrl, err := host.New(f, host.Config{Queues: 1, Depth: hostDepth})
		if err != nil {
			return qdPoint{}, err
		}
		if prefill > 0 {
			if job.StartAt, err = workload.Prefill(ctrl, 0, 0, prefill, false); err != nil {
				return qdPoint{}, fmt.Errorf("%s prefill: %w", job.Name, err)
			}
		}
		res, err := workload.Run(ctrl, job)
		if err != nil {
			return qdPoint{}, fmt.Errorf("%s: %w", job.Name, err)
		}
		return qdPoint{Depth: job.QueueDepth, IOPS: res.IOPS, BW: res.BandwidthMiBps, P50: res.Lat.P50, P99: res.Lat.P99}, nil
	}

	doc := qdSweepDoc{Depths: qdDepths}
	for _, depth := range qdDepths {
		// Random reads over a prefilled multi-zone region: independent
		// commands, free to overlap on idle chips.
		r, err := measure(workload.Job{
			Name: fmt.Sprintf("randread-qd%d", depth), Pattern: workload.RandRead,
			BlockBytes: randBS, NumJobs: 1, QueueDepth: depth,
			RangeBytes: readRange, TotalBytesPerJob: volume,
			PerOpOverhead: time.Microsecond, Seed: 42,
		}, readRange)
		if err != nil {
			return Report{}, err
		}
		// Sequential writes into one zone: every command targets the same
		// zone write lock, so depth must not buy throughput.
		w, err := measure(workload.Job{
			Name: fmt.Sprintf("seqwrite-qd%d", depth), Pattern: workload.SeqWrite,
			BlockBytes: seqBS, NumJobs: 1, QueueDepth: depth,
			RangeBytes: zoneBytes, TotalBytesPerJob: wvol,
			PerOpOverhead: time.Microsecond, Seed: 42, FlushAtEnd: true,
		}, 0)
		if err != nil {
			return Report{}, err
		}
		doc.RandRead, doc.SeqWrite = append(doc.RandRead, r), append(doc.SeqWrite, w)
	}

	t := Table{Header: []string{"qd", "randread KIOPS", "p50", "p99", "", "seqwrite MiB/s", "p50", "p99"}}
	for i, depth := range qdDepths {
		r, s := doc.RandRead[i], doc.SeqWrite[i]
		t.Add(depth, f1(r.IOPS/1000), r.P50, r.P99, "", f0(s.BW), s.P50, s.P99)
	}

	first, last := doc.RandRead[0], doc.RandRead[len(doc.RandRead)-1]
	if first.IOPS > 0 {
		doc.ReadScale = last.IOPS / first.IOPS
	}
	wfirst, wlast := doc.SeqWrite[0], doc.SeqWrite[len(doc.SeqWrite)-1]
	if wfirst.BW > 0 {
		doc.WriteVar = wlast.BW / wfirst.BW
	}
	readOK, writeOK := doc.ReadScale > 1.2, doc.WriteVar < 1.2
	mark := map[bool]string{true: "[ok]", false: "[FAIL]"}
	return Report{
		Title: fmt.Sprintf("Queue-depth sweep (qd %s): 4 KiB randread vs single-zone seqwrite",
			strings.Trim(strings.Join(strings.Fields(fmt.Sprint(qdDepths)), ","), "[]")),
		Tables: []Table{t},
		Checks: []string{
			fmt.Sprintf("read IOPS scales with queue depth: x%.2f from qd %d to qd %d (want > 1.2) %s",
				doc.ReadScale, first.Depth, last.Depth, mark[readOK]),
			fmt.Sprintf("single-zone writes stay serialized: x%.2f bandwidth at qd %d (want < 1.2) %s",
				doc.WriteVar, wlast.Depth, mark[writeOK]),
		},
		Pass:      readOK && writeOK,
		Artifacts: map[string]func(io.Writer) error{"metrics-json": JSON(doc)},
	}, nil
}
