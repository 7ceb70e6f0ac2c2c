package experiments

import (
	"fmt"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// runFaults benchmarks the device with the NAND fault model enabled next to
// a healthy run of the same jobs: a sequential fill (program fails drive
// superblock relocation and bad-block retirement) followed by random reads
// over the written extent (ECC read retries inflate tail latency). The
// faulty jobs run with ContinueOnError, so I/O errors are counted instead of
// aborting, and the fault/recovery counters and bad-block table are reported
// at the end. The claim: no sector the device acknowledged is lost.
func runFaults(cfg config.DeviceConfig, opt Options, seed uint64) (Report, error) {
	healthy, err := cfg.NewConZone()
	if err != nil {
		return Report{}, err
	}

	faultyCfg := cfg
	if faultyCfg.FTL.SpareSuperblocks == 0 {
		faultyCfg.FTL.SpareSuperblocks = 4
	}
	faultyCfg.FTL.Faults = &fault.Config{
		Seed:            seed,
		SLC:             fault.Probabilities{ProgramFail: 2e-4, EraseFail: 5e-4, ReadFail: 0.02},
		TLC:             fault.Probabilities{ProgramFail: 2e-3, EraseFail: 2e-3, ReadFail: 0.02},
		QLC:             fault.Probabilities{ProgramFail: 2e-3, EraseFail: 2e-3, ReadFail: 0.02},
		ReadRetryRounds: 4,
	}
	faulty, err := faultyCfg.NewConZone()
	if err != nil {
		return Report{}, err
	}

	zones, readVol := int64(8), int64(8*units.MiB)
	if opt.Reduced() {
		zones, readVol = 4, 2*units.MiB
	}
	zones = min(zones, int64(healthy.NumZones()))
	span := zones * healthy.ZoneCapSectors() * units.Sector

	jobs := []workload.Job{
		{
			Name: "seqwrite", Pattern: workload.SeqWrite,
			BlockBytes: seqBS, NumJobs: 2,
			RangeBytes: span, TotalBytesPerJob: span / 2,
			PerOpOverhead: 2 * time.Microsecond,
			FlushAtEnd:    true, Seed: seed,
		},
		{
			Name: "randread", Pattern: workload.RandRead,
			BlockBytes: randBS, NumJobs: 2,
			RangeBytes: span, TotalBytesPerJob: readVol,
			PerOpOverhead: 2 * time.Microsecond,
			Seed:          seed,
		},
	}

	runs := Table{Header: []string{"job", "device", "bw MiB/s", "IOPS", "p50", "p99", "I/O errors"}}
	row := func(dev string, r workload.Result) {
		errs := fmt.Sprint(r.IOErrors)
		if r.ReadOnly {
			errs += " (read-only)"
		}
		runs.Add(r.Job, dev, f1(r.BandwidthMiBps), f0(r.IOPS), r.Lat.P50, r.Lat.P99, errs)
	}
	for _, job := range jobs {
		hres, err := workload.Run(healthy, job)
		if err != nil {
			return Report{}, fmt.Errorf("healthy %s: %w", job.Name, err)
		}
		job.ContinueOnError = true
		fres, err := workload.Run(faulty, job)
		if err != nil {
			return Report{}, fmt.Errorf("faulty %s: %w", job.Name, err)
		}
		row("healthy", hres)
		row("faulty", fres)
	}

	rep := Report{Title: fmt.Sprintf("Fault injection (seed %d): healthy vs faulty device", seed), Pass: true}
	st, fs := faulty.Stats(), faulty.FaultInjector().Stats()
	counters := Table{Caption: "Fault and recovery counters:"}
	counters.Add("program fails", fs.ProgramFails)
	counters.Add("erase fails", fs.EraseFails)
	counters.Add("read retry rounds", fs.ReadRetries)
	counters.Add("uncorrectable reads", fs.Uncorrectable)
	counters.Add("superblock relocations", fmt.Sprintf("%d (%d sectors copied)", st.Relocations, st.RelocatedSectors))
	counters.Add("retired superblocks", fmt.Sprintf("%d (normal) + %d (SLC staging)",
		st.RetiredSuperblocks, faulty.Staging().RetiredSuperblocks()))
	counters.Add("free superblock pool", fmt.Sprintf("%d (of %d spares reserved)",
		len(faulty.FreeSBList()), faulty.SpareSuperblocks()))
	counters.Add("acknowledged sectors lost", fmt.Sprintf("%d (must be 0)", st.LostAckSectors))
	counters.Add("read-only", faulty.ReadOnly())
	if st.LostAckSectors != 0 {
		rep.fail("the faulty device lost %d sectors it had acknowledged", st.LostAckSectors)
	}
	rep.Tables = []Table{runs, counters}

	if bbt := faulty.BadBlockTable(); len(bbt) > 0 {
		bad := Table{Caption: "Grown bad-block table:", Header: []string{"chip", "block", "failed op"}}
		for _, bb := range bbt {
			bad.Add(bb.Chip, bb.Block, bb.Op)
		}
		rep.Tables = append(rep.Tables, bad)
	}
	return rep, nil
}
