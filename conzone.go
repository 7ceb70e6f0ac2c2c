// Package conzone is a software emulator of consumer-grade zoned flash
// storage, reproducing the system described in "ConZone: A Zoned Flash
// Storage Emulator for Consumer Devices" (DATE 2025).
//
// The emulator models the internal hardware that distinguishes consumer
// zoned devices from enterprise ZNS SSDs: a small number of shared volatile
// write buffers (premature flushes on zone conflicts), an SLC-mode block
// region used as a secondary write buffer with 4 KiB partial programming, a
// hybrid L2P mapping table whose entries aggregate to chunk or zone
// granularity, a byte-budgeted L2P cache with three miss-handling
// strategies, and composite garbage collection. Timing follows a
// discrete-event model with per-chip and per-channel resource reservation
// and the paper's Table-II media latencies.
//
// # Quick start
//
//	dev, err := conzone.Open(conzone.PaperConfig())
//	if err != nil { ... }
//	err = dev.Write(0, data)             // sequential, 4 KiB-aligned
//	buf, err := dev.Read(0, len(data))
//	fmt.Println(dev.Now(), dev.Stats().WAF)
//
// Every operation advances the device's virtual clock by the simulated
// hardware time; no wall-clock time is consumed. For experiment-grade
// control (explicit virtual timestamps, multi-threaded workloads), use
// SubmitAt and Wait, or the workload runner in this package.
package conzone

import (
	"fmt"
	"sync"
	"time"

	"github.com/conzone/conzone/internal/check"
	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/femu"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/legacy"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/telemetry"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
	"github.com/conzone/conzone/internal/zns"
)

// SectorSize is the logical block size of the device: 4 KiB.
const SectorSize = units.Sector

// Re-exported configuration types. A Config fully describes the media
// geometry, the timing table and the FTL parameters of every device model
// this module can build (ConZone, Legacy, and the FEMU and ConfZNS
// personalities).
type (
	// Config bundles geometry, latencies and per-model parameters.
	Config = config.DeviceConfig
	// Geometry is the physical NAND organisation.
	Geometry = nand.Geometry
	// LatencyTable holds per-media operation latencies (paper Table II).
	LatencyTable = nand.LatencyTable
	// Media is a flash cell type.
	Media = nand.Media
	// FTLParams configures the ConZone FTL.
	FTLParams = ftl.Params
	// Strategy selects the L2P miss search strategy.
	Strategy = ftl.Strategy
	// ZoneInfo is a host-visible zone descriptor.
	ZoneInfo = zns.Zone
	// ZoneState is the NVMe-style zone condition.
	ZoneState = zns.State
	// Time is a virtual-time instant.
	Time = sim.Time
)

// Media constants.
const (
	SLC = nand.SLCMode
	TLC = nand.TLC
	QLC = nand.QLC
)

// L2P search strategies (paper §III-C, Fig. 8).
const (
	Bitmap   = ftl.Bitmap
	Multiple = ftl.Multiple
	Pinned   = ftl.Pinned
)

// Fault-model types re-exported for robustness experiments: fill
// FTLParams.Faults with a FaultConfig to make the simulated media fail.
type (
	// FaultConfig parameterizes the deterministic NAND fault model.
	FaultConfig = fault.Config
	// FaultProbabilities holds one media type's per-op failure rates.
	FaultProbabilities = fault.Probabilities
	// FaultScript deterministically fails one block's Nth operation.
	FaultScript = fault.Script
	// FaultOp identifies a scriptable media operation.
	FaultOp = fault.Op
	// HostStatus classifies a completion's outcome (NVMe-style status).
	HostStatus = host.Status
)

// Scriptable fault operations.
const (
	FaultProgram = fault.OpProgram
	FaultErase   = fault.OpErase
	FaultRead    = fault.OpRead
)

// Completion status codes.
const (
	StatusOK         = host.StatusOK
	StatusInvalid    = host.StatusInvalid
	StatusWriteFault = host.StatusWriteFault
	StatusMediaError = host.StatusMediaError
	StatusReadOnly   = host.StatusReadOnly
)

// Robustness sentinels, for errors.Is checks on I/O errors.
var (
	// ErrReadOnly reports that the device has degraded to read-only
	// operation: its spare superblocks are exhausted, so write-class
	// commands are rejected while reads keep working.
	ErrReadOnly = fault.ErrReadOnly
	// ErrUncorrectable reports a read that stayed uncorrectable after the
	// ECC read-retry budget.
	ErrUncorrectable = nand.ErrUncorrectable
)

// PaperConfig returns the paper's §IV-A evaluation configuration.
func PaperConfig() Config { return config.Paper() }

// SmallConfig returns a fast, scaled-down configuration for tests and
// examples.
func SmallConfig() Config { return config.Small() }

// LoadConfig reads a JSON configuration saved with Config.Save.
func LoadConfig(path string) (Config, error) { return config.Load(path) }

// Stats is a unified snapshot of a ConZone device's counters: every
// subsystem's counter block (FTL, L2P cache, NAND, SLC staging, write
// buffers, fault injector), the derived WAF and miss-ratio gauges, the
// robustness counters (grown-bad blocks, power cuts, recoveries) and the
// point-in-time Occupancy gauges. Stats.Delta subtracts two snapshots for
// interval reporting; internal/telemetry owns the definition so the
// virtual-time sampler, the exporters and this public API can never drift
// apart.
type Stats = telemetry.Stats

// Occupancy holds the point-in-time fill gauges inside a Stats snapshot.
type Occupancy = telemetry.Occupancy

// Device is a thread-safe ConZone device with a byte-granular convenience
// API and an internal virtual clock. All byte offsets and lengths must be
// multiples of SectorSize.
//
// Every operation — including the traditional synchronous methods — flows
// through the device's multi-queue host interface (internal/host): a
// synchronous call is simply the queue-depth-1 special case. Asynchronous
// submitters use Submit/Poll/Wait to keep multiple commands outstanding; see
// ExampleDevice_Submit and the "Async I/O" section of the README.
//
// mu serializes every caller and is the only lock on an I/O path: the host
// controller below it is single-owner and takes none.
type Device struct {
	mu  sync.Mutex
	f   *ftl.FTL
	h   *host.Controller
	now sim.Time

	// smp is the virtual-time telemetry sampler (nil until EnableSampling);
	// advance polls it with a nil-safe comparison on every clock movement.
	smp *telemetry.Sampler
}

// Open builds a ConZone device from the configuration, with the default
// host-interface queue layout (use ConfigureQueues to change it).
func Open(cfg Config) (*Device, error) {
	// Validate the latency table against the geometry up front: a missing
	// or zero media entry must be a descriptive configuration error here,
	// not a zero-latency simulation (or a crash) deep inside the first I/O.
	if err := cfg.Latency.ValidateFor(cfg.Geometry); err != nil {
		return nil, fmt.Errorf("conzone: %w", err)
	}
	f, err := cfg.NewConZone()
	if err != nil {
		return nil, err
	}
	d := &Device{}
	if err := d.mount(f, host.Config{}, 0); err != nil {
		return nil, err
	}
	return d, nil
}

// mount is the one place a Device is assembled: f goes behind a host
// controller of the given queue layout, and the clock moves up to ready, the
// instant f could first take a command (it never runs backwards). When f
// replaces another FTL the sampler's delta baseline still holds the old
// one's counters, so the series is broken with a discontinuity marker that
// resets the baseline to f's snapshot — not polled as a regular sample.
// Whatever else outlives a mount is carried below this layer: the fault
// stream by ftl.Remount, the lifecycle recorder by the NAND array.
func (d *Device) mount(f *ftl.FTL, hc host.Config, ready sim.Time) error {
	h, err := host.New(f, hc)
	if err != nil {
		return err
	}
	replaced := f != d.f
	d.f, d.h = f, h
	if ready > d.now {
		d.now = ready
	}
	if replaced {
		d.smp.Discontinuity(d.now, telemetry.Collect(f))
	}
	return nil
}

// FTL exposes the underlying flash translation layer for experiment
// harnesses that need virtual-time control or internal statistics.
func (d *Device) FTL() *ftl.FTL { return d.f }

// Host exposes the underlying multi-queue host controller for experiment
// harnesses that drive queues directly with explicit virtual timestamps.
// The controller takes no lock of its own — the Device's is the one lock on
// an I/O — so it must not be used while other goroutines call the Device.
func (d *Device) Host() *host.Controller { return d.h }

// ZoneBytes returns the writable bytes per zone.
func (d *Device) ZoneBytes() int64 { return d.f.ZoneCapSectors() * SectorSize }

// NumZones returns the zone count.
func (d *Device) NumZones() int { return d.f.NumZones() }

// Now returns the device's virtual clock as a duration from power-on.
func (d *Device) Now() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return time.Duration(d.now)
}

func (d *Device) advance(t sim.Time) {
	if t > d.now {
		d.now = t
	}
	// Sampling disabled (the common case) costs exactly this comparison.
	if d.smp.Due(d.now) {
		d.smp.Record(d.now, telemetry.Collect(d.f))
	}
}

func checkAlign(off int64, n int) error {
	if off < 0 || off%SectorSize != 0 {
		return fmt.Errorf("conzone: offset %d not %d-aligned", off, SectorSize)
	}
	if n <= 0 || int64(n)%SectorSize != 0 {
		return fmt.Errorf("conzone: length %d not a positive multiple of %d", n, SectorSize)
	}
	return nil
}

func toSectors(data []byte) [][]byte {
	n := int64(len(data)) / SectorSize
	out := make([][]byte, n)
	for i := int64(0); i < n; i++ {
		out[i] = data[i*SectorSize : (i+1)*SectorSize]
	}
	return out
}

// exec runs one synchronous command through the host controller at the
// device clock — the queue-depth-1 round trip every synchronous method
// makes — and advances the clock to its completion when it succeeds.
func (d *Device) exec(req *host.Request) (host.Completion, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	comp, err := d.h.Exec(d.now, req)
	if err != nil {
		return comp, err
	}
	d.advance(comp.Done)
	return comp, nil
}

// Write appends data at byte offset off, which must equal the target
// zone's write pointer. The device clock advances by the simulated time.
func (d *Device) Write(off int64, data []byte) error {
	if err := checkAlign(off, len(data)); err != nil {
		return err
	}
	_, err := d.exec(&host.Request{Op: host.OpWrite, LBA: off / SectorSize, Payloads: toSectors(data)})
	return err
}

// Append performs a Zone Append: the data lands at the zone's current
// write pointer, chosen by the device, and the assigned byte offset is
// returned. Unlike Write, concurrent Appends to one zone never race on the
// write pointer — the device serializes them and reports where each landed.
func (d *Device) Append(zone int, data []byte) (int64, error) {
	if err := checkAlign(0, len(data)); err != nil {
		return -1, err
	}
	comp, err := d.exec(&host.Request{Op: host.OpAppend, Zone: zone, Payloads: toSectors(data)})
	if err != nil {
		return -1, err
	}
	return comp.LBA * SectorSize, nil
}

// Read returns n bytes from byte offset off. Unwritten sectors read as
// zeros, as on real hardware.
func (d *Device) Read(off int64, n int) ([]byte, error) {
	if err := checkAlign(off, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if err := d.ReadInto(off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto is Read into a buffer the caller owns: it fills dst, whose
// length is the read's, from byte offset off and allocates nothing. dst
// need not be zeroed — unwritten sectors are cleared — and after an error
// its contents are unspecified.
func (d *Device) ReadInto(off int64, dst []byte) error {
	if err := checkAlign(off, len(dst)); err != nil {
		return err
	}
	_, err := d.exec(&host.Request{Op: host.OpRead, LBA: off / SectorSize, N: int64(len(dst)) / SectorSize, Dst: dst})
	return err
}

// ResetZone resets the zone: its write pointer returns to the start, its
// flash blocks are erased, and its mapping entries are dropped.
func (d *Device) ResetZone(zone int) error {
	_, err := d.exec(&host.Request{Op: host.OpReset, Zone: zone})
	return err
}

// OpenZone explicitly opens a zone.
func (d *Device) OpenZone(zone int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick()) // order behind any queued zone-state mutation
	return d.f.OpenZone(zone)
}

// CloseZone closes a zone, draining its write buffer.
func (d *Device) CloseZone(zone int) error {
	_, err := d.exec(&host.Request{Op: host.OpClose, Zone: zone})
	return err
}

// FinishZone transitions a zone to FULL.
func (d *Device) FinishZone(zone int) error {
	_, err := d.exec(&host.Request{Op: host.OpFinish, Zone: zone})
	return err
}

// FlushZone forces the zone's buffered data to media (synchronous write
// semantics; sub-unit data detours through SLC).
func (d *Device) FlushZone(zone int) error {
	_, err := d.exec(&host.Request{Op: host.OpFlush, Zone: zone})
	return err
}

// Flush drains every write buffer (a device-wide write barrier: it waits
// for every queued write-class command before dispatching).
func (d *Device) Flush() error {
	_, err := d.exec(&host.Request{Op: host.OpFlush, Zone: -1})
	return err
}

// Zones returns the zone report (as NVMe Report Zones would). Queued
// asynchronous commands are dispatched first so the report is current.
func (d *Device) Zones() []ZoneInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	return d.f.Zones().Report()
}

// Zone returns one zone descriptor.
func (d *Device) Zone(id int) (ZoneInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	return d.f.Zones().Zone(id)
}

// BadBlock is one grown-bad block record.
type BadBlock = ftl.BadBlock

// BadBlocks returns the device's grown-bad block table, in discovery order.
func (d *Device) BadBlocks() []BadBlock {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	return d.f.BadBlockTable()
}

// WearReport summarises per-superblock erase counts.
type WearReport = ftl.WearReport

// Wear returns the device's current wear report (erase counts per normal
// and SLC superblock).
func (d *Device) Wear() WearReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	return d.f.Wear()
}

// CheckInvariants runs the cross-subsystem invariant audit over the
// device's current state: mapping vs. NAND programmed state, zone write
// pointers vs. committed and buffered sectors, the L2P cache vs. the
// mapping table, SLC staging occupancy, superblock bindings and the WAF
// accounting identities. It returns nil when everything is consistent, or
// an error naming the violated invariant. The audit assumes a quiescent
// device (no in-flight call on another goroutine).
func (d *Device) CheckInvariants() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	if err := check.Audit(d.f); err != nil {
		return err
	}
	return check.AuditHost(d.h)
}

// Observability types re-exported for telemetry consumers.
type (
	// Telemetry is a per-stage latency and event snapshot; it marshals to
	// JSON and renders as Prometheus text or a Chrome Trace Event file.
	Telemetry = obs.Telemetry
	// LifecycleEvent is one recorded I/O lifecycle span.
	LifecycleEvent = obs.Event
	// LifecycleStage identifies which stage of the I/O path a span covers.
	LifecycleStage = obs.Stage
)

// EnableObservation attaches a lifecycle recorder to the device: every host
// op's traversal of the write buffers, SLC staging, combine, L2P fetch, GC
// and raw media paths is recorded as a simulated-time span. ringSize bounds
// the flight-recorder window (<= 0 uses the default of 4096 events).
// Observation costs nothing until enabled; enabling it twice resets the
// recorder.
func (d *Device) EnableObservation(ringSize int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.f.SetRecorder(obs.NewRecorder(ringSize))
}

// Telemetry snapshots the lifecycle recorder: per-stage span counts, cause
// breakdowns, latency summaries, retained events and per-resource usage.
// Queued asynchronous commands are dispatched first, so the snapshot holds
// the spans of everything Stats counts at the same moment. With observation
// disabled it returns a zero snapshot.
func (d *Device) Telemetry() Telemetry {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	t := d.f.Telemetry()
	t.Events = d.f.Recorder().Events()
	return t
}

// Stats returns a unified counter snapshot.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	return telemetry.Collect(d.f)
}

// Workload types re-exported for experiment harnesses.
type (
	// Job is an fio-style micro-benchmark description.
	Job = workload.Job
	// JobResult summarises a finished job.
	JobResult = workload.Result
	// Pattern is a job access pattern.
	Pattern = workload.Pattern
	// WorkloadDevice is the surface the runner drives.
	WorkloadDevice = workload.Device
	// LegacyDevice is the traditional page-mapping baseline device.
	LegacyDevice = legacy.Device
	// FEMUDevice is the FEMU-lineage comparator device; NewFEMU and
	// NewConfZNS build its two personalities.
	FEMUDevice = femu.Device
	// ConfZNSDevice is FEMUDevice, named for what NewConfZNS returns.
	ConfZNSDevice = femu.Device
)

// Job patterns.
const (
	SeqWrite  = workload.SeqWrite
	SeqRead   = workload.SeqRead
	RandRead  = workload.RandRead
	RandWrite = workload.RandWrite
)

// RunJob executes a workload job against any device model.
func RunJob(dev WorkloadDevice, job Job) (JobResult, error) { return workload.Run(dev, job) }

// NewLegacy builds the Legacy baseline device from a configuration.
func NewLegacy(cfg Config) (*LegacyDevice, error) { return cfg.NewLegacy() }

// NewFEMU builds the FEMU-personality device from a configuration.
func NewFEMU(cfg Config) (*FEMUDevice, error) { return cfg.NewFEMU() }

// NewConfZNS builds the ConfZNS-personality device from a configuration.
func NewConfZNS(cfg Config) (*ConfZNSDevice, error) { return cfg.NewConfZNS() }
