// Command perfbench is hierdet's benchmark: observe→root-detection
// throughput and latency through the real stack (livenet clusters, the TCP
// transport and the tenant plane), with a correctness gate in every run and
// a per-layer cost ledger from a separate traced run plus isolated probes.
//
//	bash perfbench/run.sh --workload bulk-1023 --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	bulk-1023     closed loop, one in-process 1023-process cluster, mixed rounds
//	paced-tcp-63  open loop at 50 rounds/s, 63 processes split over two
//	              loopback-TCP participants so every tree edge crosses TCP
//	tenants-256   open loop at 500 tenant-rounds/s over 256 63-process
//	              tenants on one tenant-plane Multiplexer
//
// With --trace 0 the run measures with tracing off and the last stdout line
// is a JSON object carrying every end-to-end metric; with --trace 1 it
// measures an untraced and a traced half (on paced-tcp-63 also a repair
// probe with failure handling on), runs the isolated layer probes and
// reports every per-layer metric. Every metric of the run is also printed,
// with its unit, as a table above the JSON line. The process exits non-zero
// when the correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of hierdet sees, reported with --trace 0.
// They mirror BENCHMARK.json's end_to_end list.
var endToEnd = []metricDef{
	{"intervals_per_s", "1/s"},
	{"detect_p50_ms", "ms"},
	{"detect_ok_frac", "frac"},
	{"msgs_per_interval", "count"},
	{"setup_s", "s"},
	{"alloc_bytes_per_interval", "B"},
	{"retained_heap_mb", "MB"},
}

// perLayer are the single-layer metrics reported with --trace 1, named after
// the module that owns the layer. They mirror BENCHMARK.json's per_layer list.
var perLayer = []metricDef{
	{"vclock.compare_ns", "ns"},
	{"vclock.sum_ns", "ns"},
	{"vclock.components_scanned_per_interval", "count"},
	{"interval.aggregate_ns_per_set", "ns"},
	{"interval.queue_high_water", "count"},
	{"core.replay_ns_per_interval", "ns"},
	{"core.cmps_per_interval", "count"},
	{"core.digest_filter_rate", "frac"},
	{"core.memo_hit_rate", "frac"},
	{"core.pruned_per_interval", "count"},
	{"core.eliminated_per_interval", "count"},
	{"core.worst_node_cmps", "count"},
	{"core.fanout_frac", "frac"},
	{"livenet.msgs_per_drain", "count"},
	{"livenet.drains_per_interval", "count"},
	{"livenet.mailbox_high_water", "count"},
	{"livenet.wheel_lag_ms", "ms"},
	{"livenet.goroutines", "count"},
	{"livenet.hop_p50_ms", "ms"},
	{"livenet.hop_p99_ms", "ms"},
	{"livenet.self_p50_us", "us"},
	{"wire.encode_ns_per_report", "ns"},
	{"wire.decode_ns_per_report", "ns"},
	{"wire.bytes_per_report", "B"},
	{"wire.reports_per_interval", "count"},
	{"tcptransport.frames_per_flush", "count"},
	{"tcptransport.redials", "count"},
	{"tcptransport.backlog_dropped", "count"},
	{"tcptransport.hop_p50_ms", "ms"},
	{"tcptransport.hop_p99_ms", "ms"},
	{"tcptransport.bytes_per_interval", "B"},
	{"repair.suspicions", "count"},
	{"repair.child_drops", "count"},
	{"repair.repairs", "count"},
	{"repair.heartbeats_per_s", "1/s"},
	{"repair.detect_fail_frac", "frac"},
	{"tenantplane.register_ms_per_tenant", "ms"},
	{"tenantplane.tenant_p99_spread", "ratio"},
	{"tenantplane.goroutines", "count"},
	{"bench.cpu_us_per_interval", "us"},
	{"bench.teardown_s", "s"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.observe_block_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.detect_fail_frac", "frac"},
	{"bench.detect_p90_ms", "ms"},
	{"bench.detect_p99_ms", "ms"},
	{"bench.detect_samples", "count"},
	{"bench.trace_dropped_events", "count"},
	{"ledger.core_share", "frac"},
	{"ledger.wire_share", "frac"},
	{"ledger.unexplained_share", "frac"},
	{"model.eq11_msgs_ratio", "ratio"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span dumps ("" = do not write)
}

// runner runs one benchmark workload. pass builds fresh clusters, feeds
// them one pass of the workload and tears them down; verify runs the
// untimed members-retained pass; inputs are the detection trees and
// executions the workload feeds, for the isolated layer probes.
type runner interface {
	pass(traced bool) pass
	verify() tally
	inputs() ([]*tree.Topology, []*workload.Execution)
}

var workloads = map[string]func(seed int64) runner{
	"bulk-1023":    newBulk,
	"paced-tcp-63": newPaced,
	"tenants-256":  newTenants,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: bulk-1023, paced-tcp-63 or tenants-256")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "steady-state seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory for the traced run's span dump")
	flag.Parse()
	o.trace = traceFlag == 1
	mk, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, o.seconds, traceFlag)
		os.Exit(2)
	}
	res := run(mk(o.seed), o)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: correctness gate failed: %d of %d detections failed, %d unsound\n",
			res.Failed, res.Attempted, res.unsound)
	}
	emit(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// result is one run's output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
	unsound   int
	all       metrics
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures one workload and assembles the result for the mode.
func run(w runner, o options) result {
	m := metrics{}
	budget := time.Duration(o.seconds * float64(time.Second))
	// The warm-up pass lets lazy set-up and caches settle; only the gate
	// sees it.
	warm := w.pass(false)
	var passes, traced []pass
	hp, probes := w.(heartbeatProber)
	var probeBudget time.Duration
	if o.trace && probes {
		probeBudget = budget / 4
	}
	if o.trace {
		half := (budget - probeBudget) / 2
		passes = measure(w, half, false)
		traced = measure(w, half, true)
	} else {
		passes = measure(w, budget, false)
	}
	topos, execs := w.inputs()
	endToEndMetrics(m, passes)
	g := gate(append(append([]pass{warm}, passes...), traced...), w.verify())
	m["detect_ok_frac"] = math.Max(0, 1-g.failFrac())
	m["bench.detect_fail_frac"] = g.failFrac()
	// Without a repair probe the measured passes carry the failure handling
	// the repair figures describe.
	m["repair.detect_fail_frac"] = g.failFrac()
	probeOK := true
	if o.trace {
		layerCounters(m, passes, topos[0])
		if probes {
			probeOK = repairProbe(m, w, hp, probeBudget).correct()
		}
		spanMetrics(m, traced, o)
		m["bench.trace_overhead_frac"] = cpuPerInterval(traced)/m["bench.cpu_us_per_interval"] - 1
		layerProbes(m, topos, execs)
		ledger(m)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   g.correct() && probeOK,
		Attempted: g.expected,
		Failed:    g.failed(),
		Metrics:   map[string]jsonMetric{},
		unsound:   g.unsound,
		all:       m,
	}
	for _, def := range defs {
		v, ok := m[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("perfbench: metric %s not measured (%v)", def.name, v))
		}
		res.Metrics[def.name] = jsonMetric{Value: v, Unit: def.unit}
	}
	return res
}

// heartbeatProber is a workload whose measured passes run with failure
// handling off; the traced run switches it on for the repair probe.
type heartbeatProber interface{ setHeartbeats(on bool) }

// repairProbe measures the repair layer: passes fed with failure handling
// on, for budget. Their suspicions, repairs and heartbeat rate replace the
// measured passes' repair figures, and repair.detect_fail_frac is the share
// of their expected detections that went missing or spurious. Those
// detections are not counted in the run's attempted and failed: a false
// suspicion strikes at random, so they would make two runs of the same code
// disagree. The probe's own gate verdict is returned; a detection missing
// with no suspicion to explain it still fails the run.
func repairProbe(m metrics, w runner, hp heartbeatProber, budget time.Duration) tally {
	hp.setHeartbeats(true)
	defer hp.setHeartbeats(false)
	passes := measure(w, budget, false)
	var t clusterTotals
	var wall time.Duration
	for _, p := range passes {
		t.merge(p.cm)
		wall += p.wall
	}
	g := gate(passes, tally{})
	m["repair.suspicions"] = float64(t.suspicions)
	m["repair.child_drops"] = float64(t.childDrops)
	m["repair.repairs"] = float64(t.repairs)
	m["repair.heartbeats_per_s"] = float64(t.heartbeats) / wall.Seconds()
	m["repair.detect_fail_frac"] = g.failFrac()
	return g
}

// minPasses is the fewest passes a measurement makes, so every median has
// company.
const minPasses = 3

// measure makes passes until their whole duration, set-up and teardown
// included, adds up to budget.
func measure(w runner, budget time.Duration, traced bool) []pass {
	var out []pass
	start := time.Now()
	for time.Since(start) < budget || len(out) < minPasses {
		out = append(out, w.pass(traced))
	}
	return out
}

// emit prints every metric the run measured as a table, then the result
// JSON as the last line of standard output.
func emit(res result) {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(res.all))
	for k := range res.all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-42s %14.6g %s\n", k, res.all[k], units[k])
	}
	fmt.Printf("%-42s %14v (%d of %d detections failed)\n", "correct", res.Correct, res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
}
