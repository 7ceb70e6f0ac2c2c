package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloads is the fixed workload list; BENCHMARK.json repeats it and the
// schema test keeps the two equal. Later issues cite these names.
var workloads = []workloadDef{
	{"randread", "4 KiB random reads, window 64, over zone-aggregated zones (L2P hit ~100%): host arbiter, ftl single-sector read, nand.ReadPage and sim.Reserve do all the work; control for burstread and l2pmiss"},
	{"burstread", "the randread address stream submitted 64 at a time then drained: the only shape that reaches host read staging, ftl.StageRead/DrainStagedReads and nand.ReadSharder"},
	{"l2pmiss", "the randread loop under page mapping over 1 GiB: 262144 entries against 3072 cache slots (~99% miss), so l2pcache miss/insert/evict and map fetches dominate"},
	{"seqwrite", "4 KiB stamped sequential zone writes, window 16: pure direct path wbuf.Append, full-buffer flush, nand.ProgramPU, zns commit, mapping aggregate; no SLC staging"},
	{"gcmix", "4 zones on 2 write buffers, a zone flush every 3rd write plus 30% reads of acked LBAs on a second queue: premature flushes, SLC staging, combine, SLC GC and zone locks beside reads"},
	{"paperfigs", "Table II and Fig. 6a/6b/7/8 at paper scale, every pass checked against refdata: the virtual-time clock, internal/workload, stats and the legacy/femu comparators"},
	{"fleet", "fleet.Run of 2000 seeded devices at workers = nproc, digest compared with a workers = 1 pass: device construction, the worker pool and the histogram merge"},
	{"crashmount", "stamped fill, power cut mid-write, Remount, durable read-back, SaveImage, OpenImage, read-back, audit: ftl.Recover time, image throughput and their memory"},
}

// endToEnd is what a user of the emulator sees, taken with tracing off.
// Every workload reports every one of them; README.md says what "op" and
// the virtual-time numbers mean on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_ns_per_op", "ns", "lower", 0.25},
	{"host_mem_mib", "MiB", "lower", 0.20},
	{"sim_us_per_op", "sim_us", "lower", 0.10},
	{"sim_lat_us", "sim_us", "lower", 0.10},
}

// perLayer lists the metrics of single layers, reported by the traced run
// (prefix = module name). A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	// The driver's own work and the end-to-end numbers that cannot carry a
	// bound (quantised percentiles, values that are 0 today).
	{"driver.self_ns_per_io", "ns", "lower", 0},
	{"driver.batch_p99_ns_per_io", "ns", "lower", 0},
	{"driver.batches", "count", "higher", 0},
	{"driver.allocs_per_io", "count", "lower", 0},
	{"driver.sim_kiops", "sim_kiops", "higher", 0},
	{"driver.sim_p50_us", "sim_us", "lower", 0},
	{"driver.sim_p99_us", "sim_us", "lower", 0},
	{"driver.sim_p999_us", "sim_us", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},

	{"host.self_ns_per_io", "ns", "lower", 0},
	{"host.submit_ns_per_call", "ns", "lower", 0},
	{"host.poll_ns_per_call", "ns", "lower", 0},
	{"host.stub_ns_per_io", "ns", "lower", 0},
	{"host.dispatched_per_io", "count", "lower", 0},
	{"host.queue_full", "count", "lower", 0},
	{"host.sim_queue_delay_p50_us", "sim_us", "lower", 0},
	{"host.sim_queue_delay_p99_us", "sim_us", "lower", 0},

	{"ftl.span_ns_per_io", "ns", "lower", 0},
	{"ftl.self_ns_per_io", "ns", "lower", 0},
	{"ftl.read_ns_per_call", "ns", "lower", 0},
	{"ftl.write_ns_per_call", "ns", "lower", 0},
	{"ftl.flush_ns_per_call", "ns", "lower", 0},
	{"ftl.reset_ns_per_call", "ns", "lower", 0},
	{"ftl.stage_ns_per_call", "ns", "lower", 0},
	{"ftl.drain_ns_per_call", "ns", "lower", 0},
	{"ftl.direct_pus_per_kio", "count", "higher", 0},
	{"ftl.staged_sectors_per_kio", "count", "lower", 0},
	{"ftl.combines_per_kio", "count", "lower", 0},
	{"ftl.premature_flushes_per_kio", "count", "lower", 0},
	{"ftl.map_fetches_per_kio", "count", "lower", 0},
	{"ftl.map_fetch_reads_per_fetch", "count", "lower", 0},
	{"ftl.buffer_reads_per_kio", "count", "higher", 0},
	{"ftl.lost_ack_sectors", "count", "lower", 0},
	{"ftl.new_ms", "ms", "lower", 0},
	{"ftl.recover_ms", "ms", "lower", 0},
	{"ftl.recover_ms_per_gib_written", "ms", "lower", 0},
	{"ftl.recover_sim_ms", "sim_ms", "lower", 0},

	{"wbuf.append_ns", "ns", "lower", 0},
	{"wbuf.full_drains_per_kio", "count", "higher", 0},
	{"wbuf.evictions_per_kio", "count", "lower", 0},
	{"wbuf.take_drains_per_kio", "count", "lower", 0},
	{"wbuf.share", "ratio", "lower", 0},

	{"l2pcache.hit_ratio", "ratio", "higher", 0},
	{"l2pcache.probes_per_lookup", "count", "lower", 0},
	{"l2pcache.inserts_per_kio", "count", "lower", 0},
	{"l2pcache.evictions_per_kio", "count", "lower", 0},
	{"l2pcache.lookup_hit_ns", "ns", "lower", 0},
	{"l2pcache.miss_insert_ns", "ns", "lower", 0},
	{"l2pcache.invalidate_range_ns", "ns", "lower", 0},
	{"l2pcache.share", "ratio", "lower", 0},

	{"mapping.effective_ns", "ns", "lower", 0},
	{"mapping.set_ns", "ns", "lower", 0},
	{"mapping.aggregate_ns", "ns", "lower", 0},
	{"mapping.invalidate_zone_ns", "ns", "lower", 0},
	{"mapping.share", "ratio", "lower", 0},

	{"nand.page_reads_per_io", "count", "lower", 0},
	{"nand.pu_programs_per_kio", "count", "lower", 0},
	{"nand.partial_programs_per_kio", "count", "lower", 0},
	{"nand.slc_page_programs_per_kio", "count", "lower", 0},
	{"nand.erases_per_kio", "count", "lower", 0},
	{"nand.sim_waf", "ratio", "lower", 0},
	{"nand.read_page_ns", "ns", "lower", 0},
	{"nand.program_pu_ns", "ns", "lower", 0},
	{"nand.program_slc_ns", "ns", "lower", 0},
	{"nand.erase_ns", "ns", "lower", 0},
	{"nand.map_read_ns", "ns", "lower", 0},
	{"nand.share", "ratio", "lower", 0},

	{"sim.reserve_ns", "ns", "lower", 0},
	{"sim.reserves_per_io", "count", "lower", 0},
	{"sim.chip_util_max", "ratio", "higher", 0},
	{"sim.channel_util_max", "ratio", "higher", 0},
	{"sim.share", "ratio", "lower", 0},

	{"slc.append_ns", "ns", "lower", 0},
	{"slc.collect_ns_per_sector", "ns", "lower", 0},
	{"slc.victim_ns", "ns", "lower", 0},
	{"slc.staged_per_kio", "count", "lower", 0},
	{"slc.migrated_per_kio", "count", "lower", 0},
	{"slc.collections_per_kio", "count", "lower", 0},
	{"slc.migrated_per_erased_sb", "count", "lower", 0},
	{"slc.share", "ratio", "lower", 0},

	{"zns.validate_commit_ns", "ns", "lower", 0},
	{"zns.reset_ns", "ns", "lower", 0},
	{"zns.share", "ratio", "lower", 0},

	// paperfigs only.
	{"workload.run_ns_per_op", "ns", "lower", 0},
	{"stats.record_ns", "ns", "lower", 0},
	{"legacy.wall_ns_per_io", "ns", "lower", 0},
	{"femu.wall_ns_per_io", "ns", "lower", 0},
	{"confzns.wall_ns_per_io", "ns", "lower", 0},
	{"experiments.suite_wall_s", "s", "lower", 0},
	{"experiments.table2_s", "s", "lower", 0},
	{"experiments.fig6a_s", "s", "lower", 0},
	{"experiments.fig6b_s", "s", "lower", 0},
	{"experiments.fig7_s", "s", "lower", 0},
	{"experiments.fig8_s", "s", "lower", 0},
	{"fidelity.max_dev", "ratio", "lower", 0},
	{"fidelity.fig6a-write-vs-legacy", "ratio", "lower", 0},
	{"fidelity.fig6a-read-st-vs-legacy", "ratio", "lower", 0},
	{"fidelity.fig6a-read-mt-vs-legacy", "ratio", "lower", 0},
	{"fidelity.fig6a-femu-write-high", "ratio", "lower", 0},
	{"fidelity.fig6a-femu-read-st-low", "ratio", "lower", 0},
	{"fidelity.fig6b-bandwidth", "ratio", "lower", 0},
	{"fidelity.fig6b-wa", "ratio", "lower", 0},
	{"fidelity.fig7-page-16mib", "ratio", "lower", 0},
	{"fidelity.fig7-page-1gib", "ratio", "lower", 0},
	{"fidelity.fig7-hybrid-flat", "ratio", "lower", 0},
	{"fidelity.fig8-multiple-kiops", "ratio", "lower", 0},
	{"fidelity.fig8-pinned-close", "ratio", "lower", 0},
	{"fidelity.fig7-hybrid-tail", "ratio", "lower", 0},
	{"fidelity.table2_max_dev", "ratio", "lower", 0},

	// fleet only.
	{"fleet.devices_per_s", "1/s", "higher", 0},
	{"fleet.devices_per_s_w1", "1/s", "higher", 0},
	{"fleet.scaling_x", "ratio", "higher", 0},
	{"fleet.sample_device_us", "us", "lower", 0},
	{"fleet.host_kib_per_device", "KiB", "lower", 0},
	{"fleet.digest_match", "ratio", "higher", 0},

	// crashmount only.
	{"persist.save_mib_per_s", "MiB/s", "higher", 0},
	{"persist.open_mib_per_s", "MiB/s", "higher", 0},
	{"persist.save_ns_per_sector", "ns", "lower", 0},
	{"persist.open_ns_per_sector", "ns", "lower", 0},
	{"persist.image_bytes_per_written_byte", "ratio", "lower", 0},
	{"check.audit_ms", "ms", "lower", 0},

	// Observability unit costs (ROADMAP item 3).
	{"obs.disabled_record_ns", "ns", "lower", 0},
	{"obs.enabled_ns_per_io_delta", "ns", "lower", 0},
	{"telemetry.collect_ns", "ns", "lower", 0},
}

// report collects one run's outcome: metric values, the quartiles beside
// the medians, and failures counted against attempts.
type report struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"` // first few, for the reader
	Metrics   map[string]float64 `json:"metrics"`
	Spread    map[string]spread  `json:"spread,omitempty"`
	Info      map[string]string  `json:"info,omitempty"` // digests, device, counts
	Budget    []string           `json:"budget,omitempty"`
}

// spread is the sample behind a reported median.
type spread struct {
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	N   int     `json:"n"`
}

func newReport(workload string, o runOpts) *report {
	return &report{
		Workload: workload, Trace: o.trace, Seed: o.seed, Seconds: o.seconds,
		Metrics: map[string]float64{}, Spread: map[string]spread{}, Info: map[string]string{},
	}
}

func (r *report) set(name string, v float64) { r.Metrics[name] = v }

// setMedian records the median of xs under name and keeps its quartiles.
func (r *report) setMedian(name string, xs []float64) {
	s := quartiles(xs)
	r.Metrics[name] = s.P50
	r.Spread[name] = s
}

// setBest records the fastest of xs (durations) under name and keeps the
// quartiles of the whole sample beside it.
func (r *report) setBest(name string, xs []float64) {
	r.Metrics[name] = best(xs)
	r.Spread[name] = quartiles(xs)
}

// setBestRate is setBest for rates, where the fastest pass is the largest.
func (r *report) setBestRate(name string, xs []float64) {
	r.Spread[name] = quartiles(xs)
	r.Metrics[name] = 0
	if len(xs) > 0 {
		r.Metrics[name] = slices.Max(xs)
	}
}

// attempt counts n operations whose outcome the benchmark checks.
func (r *report) attempt(n int64) { r.Attempted += n }

// failf counts one failed operation and keeps the first few messages.
func (r *report) failf(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempt and, when err is non-nil, one failure.
func (r *report) check(what string, err error) {
	r.Attempted++
	if err != nil {
		r.failf("%s: %v", what, err)
	}
}

// quartiles returns the 25th, 50th and 75th percentile of xs by linear
// interpolation between order statistics.
func quartiles(xs []float64) spread {
	if len(xs) == 0 {
		return spread{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return spread{P25: quantile(s, 0.25), P50: quantile(s, 0.50), P75: quantile(s, 0.75), N: len(s)}
}

// quantile reads the q-quantile off sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quartiles(xs).P50 }

// best is the statistic every wall-clock duration is reported with: the
// fastest of the batches (or passes) of a run. On a shared virtual machine
// interference from other tenants only ever adds time, in bursts that last
// seconds, so batch medians swing by 15% from one run to the next while the
// fastest batch repeats within a few percent (README.md has the numbers).
func best(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// bestSum is best for an operation timed in consecutive pieces: the sum,
// over the pieces, of the fastest time that piece took in any row (one row
// per repetition). Interference comes in bursts shorter than most pieces, so
// each piece finds a clean repetition far more often than a whole
// operation does. A row cut short by a failure is left out.
func bestSum(rows [][]float64) float64 {
	var sum float64
	for i := range rows[0] {
		fastest := rows[0][i]
		for _, r := range rows[1:] {
			if len(r) == len(rows[0]) && r[i] < fastest {
				fastest = r[i]
			}
		}
		sum += fastest
	}
	return sum
}

// setBestSum records bestSum(rows) times scale under name, and beside it
// the quartiles of the rows' totals.
func (r *report) setBestSum(name string, rows [][]float64, scale float64) {
	totals := make([]float64, len(rows))
	for i, row := range rows {
		for _, v := range row {
			totals[i] += v * scale
		}
	}
	r.Metrics[name] = bestSum(rows) * scale
	r.Spread[name] = quartiles(totals)
}

// laps times the consecutive pieces of one operation, in seconds.
type laps struct {
	last time.Time
	secs []float64
}

func startLaps() *laps { return &laps{last: time.Now()} }

// lap closes the piece that began at the previous call.
func (l *laps) lap() {
	now := time.Now()
	l.secs = append(l.secs, now.Sub(l.last).Seconds())
	l.last = now
}

// contractLine is the JSON object the driver reads from the last line of
// standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// defsFor returns the metric list a run of the given kind must print.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// print writes every metric by name with its unit (and the sample behind
// each median), then the contract line. A missing end-to-end metric is a
// bug in the benchmark and is reported as a failure rather than as 0.
func (r *report) print(w io.Writer) {
	defs := defsFor(r.Trace)
	line := contractLine{Attempted: r.Attempted, Metrics: map[string]contractValue{}}
	fmt.Fprintf(w, "== %s trace=%v seed=%#x seconds=%g\n", r.Workload, r.Trace, r.Seed, r.Seconds)
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "   %s: %s\n", k, r.Info[k])
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			if !r.Trace {
				r.failf("end-to-end metric %s was not measured", d.Name)
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.failf("metric %s is %v", d.Name, v)
			v = 0
		}
		if r.Trace && v == 0 && !ok {
			// Not applicable to this workload: printed in the contract
			// line only, to keep the listing readable.
			line.Metrics[d.Name] = contractValue{Value: 0, Unit: d.Unit}
			continue
		}
		if s, has := r.Spread[d.Name]; has {
			fmt.Fprintf(w, "%-36s %16.6g %-9s (p25 %.6g, p50 %.6g, p75 %.6g, n=%d)\n", d.Name, v, d.Unit, s.P25, s.P50, s.P75, s.N)
		} else {
			fmt.Fprintf(w, "%-36s %16.6g %s\n", d.Name, v, d.Unit)
		}
		line.Metrics[d.Name] = contractValue{Value: v, Unit: d.Unit}
	}
	if r.Attempted < 1 {
		r.Attempted, r.Failed = 1, 1
		r.Failures = append(r.Failures, "nothing was attempted")
	}
	for _, l := range r.Budget {
		fmt.Fprintln(w, l)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.Attempted, r.Failed)
	line.Attempted, line.Failed, line.Correct = r.Attempted, r.Failed, r.Failed == 0
	b, _ := json.Marshal(line) // map[string]struct of floats and strings: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}

// save writes the full report (metrics, quartiles, digests) as JSON.
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(reportPath(dir, r.Workload, r.Trace), append(b, '\n'), 0o644)
}

func reportPath(dir, workload string, trace bool) string {
	kind := "untraced"
	if trace {
		kind = "traced"
	}
	return fmt.Sprintf("%s/%s.%s.json", strings.TrimRight(dir, "/"), workload, kind)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
