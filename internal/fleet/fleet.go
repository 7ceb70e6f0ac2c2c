// Package fleet runs populations of independent ConZone devices — the
// "thousands of phones, one experiment" layer. A fleet Spec describes
// cohorts ("10k worn QLC devices under the random-write mix"); the runner
// samples each device's parameters (pre-wear, capacity, SLC size, fault
// rates, power-cut instants, workload) from seeded distributions, builds
// the devices, drives them concurrently on a bounded worker pool, and
// merges the results into population-level output: exact cross-device
// latency percentiles (per-device histograms merged before summarizing), a
// fleet-wide telemetry roll-up, and a per-cohort Prometheus exposition.
//
// # Determinism contract
//
// Every per-device random stream — population sampling, workload choice,
// operation generation, fault injection, power-cut timing — is derived
// from (fleet seed, cohort index, device index, stream id) alone, and
// devices share no mutable state, so a device's entire simulated life is a
// pure function of the spec. Results are collected into per-device slots
// and merged in device order after all workers finish; integer counters
// and histogram buckets merge associatively and ratios are recomputed from
// the sums. The merged output is therefore byte-identical across repeated
// runs and across any worker-pool size (pinned by TestFleetDeterminism).
package fleet

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// Stream identifies one of a device's independent derived random streams.
// The values are part of the determinism contract: changing them changes
// every fleet result, so they are fixed constants, not iota.
type Stream uint64

// Derived per-device streams.
const (
	// StreamPopulation drives the population sampler (pre-wear, capacity,
	// SLC size, fault rate, power-cut draws, in CohortSpec field order).
	StreamPopulation Stream = 1
	// StreamWorkload drives the mix draw that picks the device's job.
	StreamWorkload Stream = 2
	// StreamFault seeds the device's NAND fault injector.
	StreamFault Stream = 3
	// StreamPower drives the power-cut instant draw.
	StreamPower Stream = 4
	// StreamJob seeds the job's operation generator.
	StreamJob Stream = 5
)

// mix64 is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeriveSeed maps (fleet seed, cohort, device, stream) to one 64-bit seed.
// The derivation is stable across runs, worker counts and platforms; tests
// pin that two fleets with the same seed hand every device identical
// fault/power/workload streams.
func DeriveSeed(fleetSeed uint64, cohort, device int, stream Stream) uint64 {
	h := mix64(fleetSeed)
	h = mix64(h ^ uint64(cohort+1))
	h = mix64(h ^ uint64(device+1))
	h = mix64(h ^ uint64(stream))
	return h
}

// Choice is one weighted value of a "choice" distribution.
type Choice struct {
	Value  int64 `json:"value"`
	Weight int64 `json:"weight"`
}

// Dist is a distribution over int64 values, sampled per device with a
// seeded RNG. The zero value is "fixed 0", so unset spec fields mean
// "disabled" or "use the base configuration".
type Dist struct {
	// Kind selects the distribution: "" or "fixed" (always Value),
	// "uniform" (integer uniform over [Min, Max]), "choice" (weighted
	// draw over Choices).
	Kind    string   `json:"kind,omitempty"`
	Value   int64    `json:"value,omitempty"`
	Min     int64    `json:"min,omitempty"`
	Max     int64    `json:"max,omitempty"`
	Choices []Choice `json:"choices,omitempty"`
}

// Fixed returns a degenerate distribution that always yields v.
func Fixed(v int64) Dist { return Dist{Kind: "fixed", Value: v} }

// Uniform returns an integer uniform distribution over [lo, hi].
func Uniform(lo, hi int64) Dist { return Dist{Kind: "uniform", Min: lo, Max: hi} }

// Validate rejects malformed distributions.
func (d Dist) Validate(name string) error {
	switch d.Kind {
	case "", "fixed":
		return nil
	case "uniform":
		if d.Max < d.Min {
			return fmt.Errorf("fleet: %s: uniform max %d below min %d", name, d.Max, d.Min)
		}
		return nil
	case "choice":
		if len(d.Choices) == 0 {
			return fmt.Errorf("fleet: %s: choice distribution without choices", name)
		}
		for i, c := range d.Choices {
			if c.Weight <= 0 {
				return fmt.Errorf("fleet: %s: choice %d has non-positive weight %d", name, i, c.Weight)
			}
		}
		return nil
	default:
		return fmt.Errorf("fleet: %s: unknown distribution kind %q", name, d.Kind)
	}
}

// Sample draws one value. Fixed distributions consume no RNG state; uniform
// and choice consume exactly one draw each, so the population stream's
// alignment is a pure function of the spec.
func (d Dist) Sample(r *sim.Rand) int64 {
	switch d.Kind {
	case "uniform":
		return d.Min + r.Int63n(d.Max-d.Min+1)
	case "choice":
		var total int64
		for _, c := range d.Choices {
			total += c.Weight
		}
		x := r.Int63n(total)
		for _, c := range d.Choices {
			x -= c.Weight
			if x < 0 {
				return c.Value
			}
		}
		return d.Choices[len(d.Choices)-1].Value
	default:
		return d.Value
	}
}

// Bounds returns the smallest and largest value the distribution can yield,
// used to validate a cohort's corner configurations before a run.
func (d Dist) Bounds() (lo, hi int64) {
	switch d.Kind {
	case "uniform":
		return d.Min, d.Max
	case "choice":
		lo, hi = d.Choices[0].Value, d.Choices[0].Value
		for _, c := range d.Choices[1:] {
			if c.Value < lo {
				lo = c.Value
			}
			if c.Value > hi {
				hi = c.Value
			}
		}
		return lo, hi
	default:
		return d.Value, d.Value
	}
}

// JobSpec is one weighted workload of a cohort's mix, in fleet-friendly
// units (the concrete workload.Job region is fitted per device, since
// capacity varies across the population).
type JobSpec struct {
	Name   string `json:"name"`
	Weight int64  `json:"weight"` // 0 = 1
	// Pattern is a workload pattern name: "write", "read", "randread",
	// "randwrite" or "zonerandwrite".
	Pattern string `json:"pattern"`
	// BlockKiB is the I/O size (default 4).
	BlockKiB int64 `json:"block_kib,omitempty"`
	// VolumeKiB is the per-device I/O volume.
	VolumeKiB int64 `json:"volume_kib"`
	// RangeZones bounds the job (and any prefill) to the device's first N
	// zones; 0 uses the whole device.
	RangeZones int `json:"range_zones,omitempty"`
	// QueueDepth > 1 drives the device's submission queues (fio iodepth).
	QueueDepth int `json:"queue_depth,omitempty"`
	// Threads is the virtual-thread count (default 1).
	Threads int `json:"threads,omitempty"`
	// SyncWrites flushes the written zone after every write (O_SYNC).
	SyncWrites bool `json:"sync_writes,omitempty"`
}

func (j JobSpec) weight() int64 {
	if j.Weight <= 0 {
		return 1
	}
	return j.Weight
}

func (j JobSpec) pattern() (workload.Pattern, error) {
	switch j.Pattern {
	case "write":
		return workload.SeqWrite, nil
	case "read":
		return workload.SeqRead, nil
	case "randread":
		return workload.RandRead, nil
	case "randwrite":
		return workload.RandWrite, nil
	case "zonerandwrite":
		return workload.ZoneRandWrite, nil
	}
	return 0, fmt.Errorf("fleet: unknown pattern %q", j.Pattern)
}

// CohortSpec describes one homogeneous-in-distribution slice of the
// population: how many devices, which base configuration they start from,
// and the per-device distributions the sampler draws from.
type CohortSpec struct {
	Name    string `json:"name"`
	Devices int    `json:"devices"`

	// Base names the starting configuration: "small" (default), "paper"
	// or "qlc".
	Base string `json:"base,omitempty"`

	// PreWearErases ages each device's media by the sampled erase count
	// (device age / wear population axis).
	PreWearErases Dist `json:"pre_wear_erases,omitempty"`
	// NormalBlocksPerChip overrides the per-chip count of zone-backing
	// blocks (capacity axis); 0 keeps the base geometry.
	NormalBlocksPerChip Dist `json:"normal_blocks_per_chip,omitempty"`
	// SLCBlocks overrides the per-chip SLC staging block count; 0 keeps
	// the base geometry.
	SLCBlocks Dist `json:"slc_blocks,omitempty"`
	// SpareSuperblocks reserves normal superblocks for bad-block
	// replacement on every device of the cohort.
	SpareSuperblocks int `json:"spare_superblocks,omitempty"`

	// FaultPPM arms the NAND fault model with the sampled program/erase
	// failure probability, in parts per million; 0 = healthy media.
	FaultPPM Dist `json:"fault_ppm,omitempty"`
	// ReadFaultPPM is the sampled read-failure probability in ppm.
	ReadFaultPPM Dist `json:"read_fault_ppm,omitempty"`
	// WearRefErases couples fault rates to wear (fault.Config), so
	// pre-worn devices fail more; 0 disables coupling.
	WearRefErases int64 `json:"wear_ref_erases,omitempty"`

	// PowerCutNs arms a power cut at the sampled virtual-time instant
	// (nanoseconds); 0 = never. Devices whose cut fires mid-workload stop
	// serving I/O and count into the cohort's power-lost tally.
	PowerCutNs Dist `json:"power_cut_ns,omitempty"`

	// Jobs is the cohort's workload mix; each device draws one entry.
	Jobs []JobSpec `json:"jobs"`
}

func (c *CohortSpec) base() (config.DeviceConfig, error) {
	switch c.Base {
	case "", "small":
		return config.Small(), nil
	case "paper":
		return config.Paper(), nil
	case "qlc":
		return config.QLC(), nil
	}
	return config.DeviceConfig{}, fmt.Errorf("fleet: cohort %q: unknown base %q", c.Name, c.Base)
}

// Spec is a full fleet description: the master seed plus the cohorts.
type Spec struct {
	Seed    uint64       `json:"seed"`
	Cohorts []CohortSpec `json:"cohorts"`
}

// Devices returns the population size.
func (s *Spec) Devices() int {
	n := 0
	for _, c := range s.Cohorts {
		n += c.Devices
	}
	return n
}

// LoadSpec reads and validates a JSON fleet spec.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("fleet: parse %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return s, fmt.Errorf("fleet: %s: %w", path, err)
	}
	return s, nil
}

// DefaultSpec returns a ready-to-run two-cohort population: "fresh"
// factory-new devices against "worn" pre-aged devices with wear-coupled
// fault rates and occasional mid-run power cuts — the population curve
// EXPERIMENTS.md studies. Device count per cohort is a parameter so tests
// and the CLI can scale the same shape from a 20-device smoke to 10k.
func DefaultSpec(seed uint64, devicesPerCohort int) Spec {
	writeMix := []JobSpec{
		{Name: "zrw", Weight: 3, Pattern: "zonerandwrite", BlockKiB: 16, VolumeKiB: 768, QueueDepth: 8},
		{Name: "seqw", Weight: 1, Pattern: "write", BlockKiB: 64, VolumeKiB: 1024, SyncWrites: true},
	}
	return Spec{
		Seed: seed,
		Cohorts: []CohortSpec{
			{
				Name:    "fresh",
				Devices: devicesPerCohort,
				Base:    "small",
				Jobs:    writeMix,
			},
			{
				Name:             "worn",
				Devices:          devicesPerCohort,
				Base:             "small",
				PreWearErases:    Uniform(500, 3000),
				FaultPPM:         Uniform(0, 200),
				ReadFaultPPM:     Fixed(50),
				WearRefErases:    1000,
				SpareSuperblocks: 1,
				PowerCutNs: Dist{Kind: "choice", Choices: []Choice{
					{Value: 0, Weight: 9},         // most devices never lose power
					{Value: 2_000_000, Weight: 1}, // 2 ms of virtual time into the run
				}},
				Jobs: writeMix,
			},
		},
	}
}

// Validate rejects malformed specs and builds each cohort's corner
// configurations (every distribution at its bounds) so geometry errors
// surface before a ten-thousand-device run, not in the middle of one.
func (s *Spec) Validate() error {
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("fleet: spec has no cohorts")
	}
	seen := make(map[string]bool, len(s.Cohorts))
	for ci := range s.Cohorts {
		c := &s.Cohorts[ci]
		if c.Name == "" {
			return fmt.Errorf("fleet: cohort %d has no name", ci)
		}
		if seen[c.Name] {
			return fmt.Errorf("fleet: duplicate cohort name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Devices <= 0 {
			return fmt.Errorf("fleet: cohort %q: non-positive device count %d", c.Name, c.Devices)
		}
		for _, v := range []struct {
			name string
			d    Dist
		}{
			{"pre_wear_erases", c.PreWearErases},
			{"normal_blocks_per_chip", c.NormalBlocksPerChip},
			{"slc_blocks", c.SLCBlocks},
			{"fault_ppm", c.FaultPPM},
			{"read_fault_ppm", c.ReadFaultPPM},
			{"power_cut_ns", c.PowerCutNs},
		} {
			if err := v.d.Validate(fmt.Sprintf("cohort %q %s", c.Name, v.name)); err != nil {
				return err
			}
		}
		if lo, _ := c.PreWearErases.Bounds(); lo < 0 {
			return fmt.Errorf("fleet: cohort %q: negative pre-wear", c.Name)
		}
		if lo, _ := c.NormalBlocksPerChip.Bounds(); lo < 0 {
			return fmt.Errorf("fleet: cohort %q: negative normal_blocks_per_chip", c.Name)
		}
		if lo, _ := c.SLCBlocks.Bounds(); lo < 0 {
			return fmt.Errorf("fleet: cohort %q: negative slc_blocks", c.Name)
		}
		if lo, hi := c.FaultPPM.Bounds(); lo < 0 || hi > 1_000_000 {
			return fmt.Errorf("fleet: cohort %q: fault_ppm outside [0, 1e6]", c.Name)
		}
		if lo, hi := c.ReadFaultPPM.Bounds(); lo < 0 || hi > 1_000_000 {
			return fmt.Errorf("fleet: cohort %q: read_fault_ppm outside [0, 1e6]", c.Name)
		}
		if lo, _ := c.PowerCutNs.Bounds(); lo < 0 {
			return fmt.Errorf("fleet: cohort %q: negative power_cut_ns", c.Name)
		}
		if len(c.Jobs) == 0 {
			return fmt.Errorf("fleet: cohort %q has no jobs", c.Name)
		}
		for ji, j := range c.Jobs {
			if _, err := j.pattern(); err != nil {
				return fmt.Errorf("fleet: cohort %q job %d: %w", c.Name, ji, err)
			}
			if j.VolumeKiB <= 0 {
				return fmt.Errorf("fleet: cohort %q job %q: non-positive volume", c.Name, j.Name)
			}
			if j.BlockKiB < 0 || j.RangeZones < 0 || j.QueueDepth < 0 || j.Threads < 0 {
				return fmt.Errorf("fleet: cohort %q job %q: negative parameter", c.Name, j.Name)
			}
		}
		// Corner-build the geometry: both bounds of the capacity and SLC
		// distributions must yield a constructible device.
		for _, corner := range []bool{false, true} {
			p := DeviceParams{
				PreWearErases: boundOf(c.PreWearErases, corner),
				NormalBlocks:  boundOf(c.NormalBlocksPerChip, corner),
				SLCBlocks:     boundOf(c.SLCBlocks, corner),
				FaultPPM:      boundOf(c.FaultPPM, corner),
			}
			cfg, err := c.deviceConfig(p, 1)
			if err != nil {
				return err
			}
			if _, err := cfg.NewConZone(); err != nil {
				return fmt.Errorf("fleet: cohort %q: corner geometry does not build: %w", c.Name, err)
			}
		}
	}
	return nil
}

func boundOf(d Dist, upper bool) int64 {
	lo, hi := d.Bounds()
	if upper {
		return hi
	}
	return lo
}

// DeviceParams are one device's sampled population parameters plus its
// derived seeds — everything that makes the device differ from its cohort
// siblings.
type DeviceParams struct {
	Cohort string `json:"cohort"`
	Device int    `json:"device"` // index within the cohort

	PreWearErases int64 `json:"pre_wear_erases"`
	NormalBlocks  int64 `json:"normal_blocks_per_chip"` // 0 = base
	SLCBlocks     int64 `json:"slc_blocks"`             // 0 = base
	FaultPPM      int64 `json:"fault_ppm"`
	ReadFaultPPM  int64 `json:"read_fault_ppm"`
	PowerCutNs    int64 `json:"power_cut_ns"`

	Job     string `json:"job"` // selected mix entry name
	jobSpec JobSpec

	FaultSeed uint64 `json:"fault_seed"`
	JobSeed   uint64 `json:"job_seed"`
}

// SampleDevice draws device di of cohort ci deterministically: the draw
// depends only on (spec seed, cohort index, device index), never on other
// devices or on scheduling.
func SampleDevice(s *Spec, ci, di int) DeviceParams {
	c := &s.Cohorts[ci]
	pop := sim.NewRand(DeriveSeed(s.Seed, ci, di, StreamPopulation))
	p := DeviceParams{
		Cohort:        c.Name,
		Device:        di,
		PreWearErases: c.PreWearErases.Sample(pop),
		NormalBlocks:  c.NormalBlocksPerChip.Sample(pop),
		SLCBlocks:     c.SLCBlocks.Sample(pop),
		FaultPPM:      c.FaultPPM.Sample(pop),
		ReadFaultPPM:  c.ReadFaultPPM.Sample(pop),
		FaultSeed:     DeriveSeed(s.Seed, ci, di, StreamFault),
		JobSeed:       DeriveSeed(s.Seed, ci, di, StreamJob),
	}
	p.PowerCutNs = c.PowerCutNs.Sample(sim.NewRand(DeriveSeed(s.Seed, ci, di, StreamPower)))

	// The mix draw uses its own stream so adding a population axis never
	// reshuffles which device runs which workload.
	mixRng := sim.NewRand(DeriveSeed(s.Seed, ci, di, StreamWorkload))
	var total int64
	for _, j := range c.Jobs {
		total += j.weight()
	}
	x := mixRng.Int63n(total)
	for _, j := range c.Jobs {
		x -= j.weight()
		if x < 0 {
			p.jobSpec = j
			break
		}
	}
	p.Job = p.jobSpec.Name
	if p.Job == "" {
		p.Job = p.jobSpec.Pattern
	}
	return p
}

// deviceConfig materializes the sampled parameters into a buildable device
// configuration.
func (c *CohortSpec) deviceConfig(p DeviceParams, faultSeed uint64) (config.DeviceConfig, error) {
	cfg, err := c.base()
	if err != nil {
		return cfg, err
	}
	g := &cfg.Geometry
	normal := int64(g.NormalBlocks())
	if p.NormalBlocks > 0 {
		normal = p.NormalBlocks
	}
	if p.SLCBlocks > 0 {
		g.SLCBlocks = int(p.SLCBlocks)
	}
	g.BlocksPerChip = int(normal) + g.SLCBlocks + g.MapBlocks
	cfg.FTL.PreWearErases = p.PreWearErases
	cfg.FTL.SpareSuperblocks = c.SpareSuperblocks
	if p.FaultPPM > 0 || p.ReadFaultPPM > 0 {
		prob := fault.Probabilities{
			ProgramFail: float64(p.FaultPPM) / 1e6,
			EraseFail:   float64(p.FaultPPM) / 1e6,
			ReadFail:    float64(p.ReadFaultPPM) / 1e6,
		}
		cfg.FTL.Faults = &fault.Config{
			Seed:          faultSeed,
			SLC:           prob,
			TLC:           prob,
			QLC:           prob,
			WearRefErases: c.WearRefErases,
		}
	}
	return cfg, nil
}

// buildJob fits the device's sampled job template to a concrete device:
// region from capacity (bounded by RangeZones), seeds from the derived
// streams, error tolerance on (a fleet run must not abort because one
// device of ten thousand degraded).
func buildJob(p DeviceParams, zoneBytes, capBytes int64) (workload.Job, error) {
	js := p.jobSpec
	pat, err := js.pattern()
	if err != nil {
		return workload.Job{}, err
	}
	block := js.BlockKiB * units.KiB
	if block == 0 {
		block = 4 * units.KiB
	}
	region := units.AlignDown(capBytes, zoneBytes)
	if js.RangeZones > 0 && int64(js.RangeZones)*zoneBytes < region {
		region = int64(js.RangeZones) * zoneBytes
	}
	threads := js.Threads
	if threads == 0 {
		threads = 1
	}
	job := workload.Job{
		Name:             p.Job,
		Pattern:          pat,
		BlockBytes:       block,
		NumJobs:          threads,
		OffsetBytes:      0,
		RangeBytes:       region,
		TotalBytesPerJob: units.AlignDown(js.VolumeKiB*units.KiB, block),
		QueueDepth:       js.QueueDepth,
		SyncWrites:       js.SyncWrites,
		ContinueOnError:  true,
		Seed:             p.JobSeed,
	}
	if job.TotalBytesPerJob <= 0 {
		job.TotalBytesPerJob = block
	}
	return job, nil
}
