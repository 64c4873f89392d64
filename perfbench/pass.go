package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"hierdet/internal/analytic"
	"hierdet/internal/livenet"
	"hierdet/internal/transport/tcptransport"
	"hierdet/internal/tree"
)

// pass is one measured run on freshly built clusters: set-up, a steady
// phase feeding the workload, and teardown after the last expected
// detection.
type pass struct {
	setup, teardown time.Duration
	intervals       int
	rounds          int           // rounds fed per detection tree, summed over trees
	wall            time.Duration // first observe → last expected root detection
	cpu             time.Duration // process user+sys over the steady phase
	alloc           uint64        // bytes allocated over the steady phase
	retained        int64         // live heap at the end of the steady phase minus before set-up
	lat             []float64     // ms from due time to full-span root detection
	tenantLat       [][]float64   // tenants-256 only: lat split per tenant
	genLag          []float64     // ms the open-loop generator ran late
	observeBlock    time.Duration // generator time inside ObserveBatch
	genTime         time.Duration // generator time in the steady phase
	goroutines      int
	registerMs      float64 // tenants-256: set-up ms per registered tenant
	planeGoroutines int     // tenants-256: goroutines while the plane runs
	cm              clusterTotals
	tcp             tcptransport.Stats
	wireReports     int64   // reports that crossed a transport
	depthDets       []int64 // detections at each depth, every tree summed
	tally           tally
	spans           []span
	droppedEvents   int
}

// clusterTotals sums livenet.ClusterMetrics over the clusters of a pass,
// taking maxima where a sum would mislead.
type clusterTotals struct {
	msgsOut, reportsSent, cmps, filtered, memo, pruned, eliminated int64
	worstNodeCmps, queueHigh                                       int64
	mailboxHigh                                                    int
	drains, drained, fanouts, inlines                              int64
	wheelLagNs                                                     int64
	repairs, childDrops, heartbeats, suspicions                    int64
}

func totalsOf(cm livenet.ClusterMetrics) clusterTotals {
	return clusterTotals{
		msgsOut:       cm.MsgsOut,
		reportsSent:   cm.Events["report_sent"],
		cmps:          cm.VecComparisons,
		filtered:      cm.FilteredComparisons,
		memo:          cm.MemoHits,
		pruned:        cm.Pruned,
		eliminated:    cm.Eliminated,
		worstNodeCmps: cm.WorstNodeCmps,
		queueHigh:     cm.QueueHighWater,
		mailboxHigh:   cm.MailboxHighWater,
		drains:        cm.Drains,
		drained:       cm.MessagesDrained,
		fanouts:       cm.DetectFanouts,
		inlines:       cm.DetectInlines,
		wheelLagNs:    cm.WheelLagNanos,
		repairs:       cm.Repairs,
		childDrops:    cm.ChildDrops,
		heartbeats:    cm.Heartbeats,
		suspicions:    cm.Events["node_suspected"],
	}
}

func (t *clusterTotals) merge(o clusterTotals) {
	t.msgsOut += o.msgsOut
	t.reportsSent += o.reportsSent
	t.cmps += o.cmps
	t.filtered += o.filtered
	t.memo += o.memo
	t.pruned += o.pruned
	t.eliminated += o.eliminated
	t.worstNodeCmps = max(t.worstNodeCmps, o.worstNodeCmps)
	t.queueHigh = max(t.queueHigh, o.queueHigh)
	t.mailboxHigh = max(t.mailboxHigh, o.mailboxHigh)
	t.drains += o.drains
	t.drained += o.drained
	t.fanouts += o.fanouts
	t.inlines += o.inlines
	t.wheelLagNs = max(t.wheelLagNs, o.wheelLagNs)
	t.repairs += o.repairs
	t.childDrops += o.childDrops
	t.heartbeats += o.heartbeats
	t.suspicions += o.suspicions
}

func addTCP(a *tcptransport.Stats, b tcptransport.Stats) {
	a.FramesOut += b.FramesOut
	a.Flushes += b.Flushes
	a.Redials += b.Redials
	a.BacklogDropped += b.BacklogDropped
	a.BytesOut += b.BytesOut
}

// observeCluster folds one cluster's end-of-pass state into the pass: its
// metrics, its per-node detection counts against expect (node id →
// expected detections; the root is judged by its rootSink instead), and its
// per-depth detection counts.
func (p *pass) observeCluster(c *livenet.Cluster, topo *tree.Topology, expect []int) {
	cm := totalsOf(c.ClusterMetrics())
	p.cm.merge(cm)
	p.tally.suspicions += int(cm.suspicions)
	root := topo.Roots()[0]
	for _, nm := range c.MetricsByNode() {
		d := topo.Depth(nm.ID)
		for len(p.depthDets) <= d {
			p.depthDets = append(p.depthDets, 0)
		}
		p.depthDets[d] += int64(nm.Detections)
		if nm.ID != root {
			p.tally.addCount(expect[nm.ID], nm.Detections)
		}
	}
}

// steady brackets the steady phase: process CPU time and allocation.
type steady struct {
	cpu   time.Duration
	alloc uint64
}

func beginSteady() steady {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return steady{cpu: cpuTime(), alloc: ms.TotalAlloc}
}

func (s steady) end(p *pass) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.cpu = cpuTime() - s.cpu
	p.alloc = ms.TotalAlloc - s.alloc
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// sleepUntil waits for the epoch-relative time t and returns how late it woke.
func sleepUntil(t int64) int64 {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return now() - t
}

// quantile is the q-quantile of xs by linear interpolation (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// perPass is the median over passes of f.
func perPass(passes []pass, f func(p pass) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return median(xs)
}

func cpuPerInterval(passes []pass) float64 {
	return perPass(passes, func(p pass) float64 { return p.cpu.Seconds() * 1e6 / float64(p.intervals) })
}

// endToEndMetrics derives the user-facing metrics: per-pass ratios as
// medians over passes, latency quantiles over the pooled samples.
func endToEndMetrics(m metrics, passes []pass) {
	var lat []float64
	for _, p := range passes {
		lat = append(lat, p.lat...)
	}
	m["intervals_per_s"] = perPass(passes, func(p pass) float64 { return float64(p.intervals) / p.wall.Seconds() })
	m["bench.cpu_us_per_interval"] = cpuPerInterval(passes)
	m["detect_p50_ms"] = quantile(lat, 0.50)
	m["bench.detect_p90_ms"] = quantile(lat, 0.90)
	m["bench.detect_p99_ms"] = quantile(lat, 0.99)
	m["bench.detect_samples"] = float64(len(lat))
	m["msgs_per_interval"] = perPass(passes, func(p pass) float64 { return float64(p.cm.msgsOut) / float64(p.intervals) })
	m["setup_s"] = perPass(passes, func(p pass) float64 { return p.setup.Seconds() })
	m["bench.teardown_s"] = perPass(passes, func(p pass) float64 { return p.teardown.Seconds() })
	m["alloc_bytes_per_interval"] = perPass(passes, func(p pass) float64 { return float64(p.alloc) / float64(p.intervals) })
	m["retained_heap_mb"] = perPass(passes, func(p pass) float64 { return float64(p.retained) / 1e6 })
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounters derives the per-layer counters of the untraced passes on
// detection trees shaped like topo.
func layerCounters(m metrics, passes []pass, topo *tree.Topology) {
	n, d, levels := topo.N(), topo.Degree(), topo.Height()+1
	var t clusterTotals
	var tcp tcptransport.Stats
	var intervals, rounds int
	var wireReports int64
	var wall, block, gen time.Duration
	var lag []float64
	depth := make([]int64, levels)
	for _, p := range passes {
		t.merge(p.cm)
		addTCP(&tcp, p.tcp)
		intervals += p.intervals
		rounds += p.rounds
		wireReports += p.wireReports
		wall += p.wall
		block += p.observeBlock
		gen += p.genTime
		lag = append(lag, p.genLag...)
		for i, v := range p.depthDets {
			depth[i] += v
		}
	}
	iv := float64(intervals)
	m["vclock.components_scanned_per_interval"] = float64(t.cmps-t.filtered-t.memo) * float64(n) / iv
	m["interval.queue_high_water"] = float64(t.queueHigh)
	m["core.cmps_per_interval"] = float64(t.cmps) / iv
	m["core.digest_filter_rate"] = ratio(float64(t.filtered), float64(t.cmps))
	m["core.memo_hit_rate"] = ratio(float64(t.memo), float64(t.cmps))
	m["core.pruned_per_interval"] = float64(t.pruned) / iv
	m["core.eliminated_per_interval"] = float64(t.eliminated) / iv
	m["core.worst_node_cmps"] = perPass(passes, func(p pass) float64 { return float64(p.cm.worstNodeCmps) })
	m["core.fanout_frac"] = ratio(float64(t.fanouts), float64(t.fanouts+t.inlines))
	m["livenet.msgs_per_drain"] = ratio(float64(t.drained), float64(t.drains))
	m["livenet.drains_per_interval"] = float64(t.drains) / iv
	m["livenet.mailbox_high_water"] = float64(t.mailboxHigh)
	m["livenet.wheel_lag_ms"] = perPass(passes, func(p pass) float64 { return float64(p.cm.wheelLagNs) / 1e6 })
	m["livenet.goroutines"] = perPass(passes, func(p pass) float64 { return float64(p.goroutines) })
	m["tcptransport.frames_per_flush"] = ratio(float64(tcp.FramesOut), float64(tcp.Flushes))
	m["tcptransport.redials"] = float64(tcp.Redials)
	m["tcptransport.backlog_dropped"] = float64(tcp.BacklogDropped)
	m["tcptransport.bytes_per_interval"] = float64(tcp.BytesOut) / iv
	m["repair.suspicions"] = float64(t.suspicions)
	m["repair.child_drops"] = float64(t.childDrops)
	m["repair.repairs"] = float64(t.repairs)
	m["repair.heartbeats_per_s"] = float64(t.heartbeats) / wall.Seconds()
	m["tenantplane.register_ms_per_tenant"] = perPass(passes, func(p pass) float64 { return p.registerMs })
	m["tenantplane.goroutines"] = perPass(passes, func(p pass) float64 { return float64(p.planeGoroutines) })
	m["tenantplane.tenant_p99_spread"] = tenantSpread(passes)
	m["bench.gen_lag_p99_ms"] = quantile(lag, 0.99)
	m["bench.observe_block_frac"] = ratio(block.Seconds(), gen.Seconds())
	m["model.eq11_msgs_ratio"] = eq11Ratio(t.reportsSent, depth, rounds, d, levels)
	m["wire.reports_per_interval"] = float64(wireReports) / iv
}

// tenantSpread is the worst tenant's p99 latency over the median tenant's.
func tenantSpread(passes []pass) float64 {
	var per [][]float64
	for _, p := range passes {
		for i, l := range p.tenantLat {
			for len(per) <= i {
				per = append(per, nil)
			}
			per[i] = append(per[i], l...)
		}
	}
	if len(per) == 0 {
		return 0
	}
	p99 := make([]float64, len(per))
	for i, l := range per {
		p99[i] = quantile(l, 0.99)
	}
	return ratio(quantile(p99, 1), median(p99))
}

// eq11Ratio compares the measured report messages with paper Eq. 11 at the
// run's own α: the mean over levels of sent(ℓ)/sent(ℓ−1), from the
// detections counted at each depth (every non-root detection is one report
// to the parent), capped at 1 as Eq. 11 requires. rounds is the paper's p,
// summed over trees — Eq. 11 is linear in p.
func eq11Ratio(reports int64, depthDets []int64, rounds, d, levels int) float64 {
	if rounds == 0 || levels < 2 {
		return 0
	}
	var sum float64
	var k int
	for depth := levels - 2; depth >= 1; depth-- {
		if below := depthDets[depth+1]; below > 0 {
			sum += float64(depthDets[depth]) / float64(below)
			k++
		}
	}
	alpha := 0.0
	if k > 0 {
		alpha = math.Min(1, sum/float64(k))
	}
	return float64(reports) / analytic.HierarchicalMessages(rounds, d, levels, alpha)
}

// spanMetrics derives the traced run's hop and self-time quantiles and
// writes its spans to the output directory.
func spanMetrics(m metrics, traced []pass, o options) {
	var local, cross, self []float64
	dropped := 0
	for _, p := range traced {
		dropped += p.droppedEvents
		for _, s := range p.spans {
			d := float64(s.end - s.start)
			switch {
			case s.kind == "self":
				self = append(self, d/1e3)
			case s.cross:
				cross = append(cross, d/1e6)
			default:
				local = append(local, d/1e6)
			}
		}
	}
	m["livenet.hop_p50_ms"] = quantile(local, 0.50)
	m["livenet.hop_p99_ms"] = quantile(local, 0.99)
	m["tcptransport.hop_p50_ms"] = quantile(cross, 0.50)
	m["tcptransport.hop_p99_ms"] = quantile(cross, 0.99)
	m["livenet.self_p50_us"] = quantile(self, 0.50)
	m["bench.trace_dropped_events"] = float64(dropped)
	if o.out != "" && len(traced) > 0 {
		if err := writeSpans(filepath.Join(o.out, "spans-"+o.workload+".tsv"), traced[len(traced)-1].spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
}

// writeSpans dumps one traced pass's spans as tab-separated text.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\tcross\ttenant\tnode\tpeer\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%t\t%d\t%d\t%d\t%d\t%d\n", s.kind, s.cross, s.tenant, s.node, s.peer, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledger splits the untraced CPU cost per interval into the isolated layer
// costs and the unexplained remainder, which is never folded into a layer.
func ledger(m metrics) {
	total := m["bench.cpu_us_per_interval"] * 1e3
	core := m["core.replay_ns_per_interval"]
	wire := (m["wire.encode_ns_per_report"] + m["wire.decode_ns_per_report"]) * m["wire.reports_per_interval"]
	m["ledger.core_share"] = core / total
	m["ledger.wire_share"] = wire / total
	m["ledger.unexplained_share"] = 1 - (core+wire)/total
}
