// Command hdmon runs one monitoring simulation end to end and reports what
// was detected and what it cost — a workbench for exploring the hierarchical
// detector (and the centralized baseline) on arbitrary topologies, workload
// mixes and failure schedules.
//
// Examples:
//
//	go run ./cmd/hdmon -n 40 -degree 3 -rounds 30 -pglobal 0.3 -pgroup 0.4
//	go run ./cmd/hdmon -n 15 -algo central -rounds 20 -pglobal 1
//	go run ./cmd/hdmon -n 31 -rounds 20 -pglobal 1 -fail 1@5500 -fail 8@9200 -heartbeats
//	go run ./cmd/hdmon -shape chain -n 10 -rounds 10 -pglobal 1 -v
//	go run ./cmd/hdmon -live -n 15 -rounds 20 -pglobal 1 -fail 1@10 -v
//
// With -live the detector runs on real goroutines and channels instead of
// the deterministic simulator; failures are then injected at round
// boundaries (-fail node@round) and repaired by the live heartbeat/attach
// machinery, and per-node runtime metrics are reported.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hierdet"
)

type failureList []hierdet.Failure

func (f *failureList) String() string { return fmt.Sprint(*f) }

func (f *failureList) Set(s string) error {
	parts := strings.Split(s, "@")
	if len(parts) != 2 {
		return fmt.Errorf("want node@time, got %q", s)
	}
	node, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("bad node in %q: %v", s, err)
	}
	at, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return fmt.Errorf("bad time in %q: %v", s, err)
	}
	*f = append(*f, hierdet.Failure{At: at, Node: node})
	return nil
}

func main() {
	var (
		n        = flag.Int("n", 15, "number of processes")
		degree   = flag.Int("degree", 2, "tree degree (balanced/random shapes)")
		shape    = flag.String("shape", "balanced", "topology: balanced | chain | star | random")
		algo     = flag.String("algo", "hier", "algorithm: hier | central")
		rounds   = flag.Int("rounds", 20, "workload rounds (intervals per process)")
		pglobal  = flag.Float64("pglobal", 0.5, "probability a round satisfies the global predicate")
		pgroup   = flag.Float64("pgroup", 0.25, "probability a round satisfies only per-subtree predicates")
		seed     = flag.Int64("seed", 1, "seed for workload, delays and jitter")
		fifo     = flag.Bool("fifo", false, "force FIFO links (the model is non-FIFO)")
		hb       = flag.Bool("heartbeats", false, "detect failures via heartbeats instead of oracle repair")
		distrep  = flag.Bool("distrepair", false, "repair the tree with the distributed attach protocol (implies -heartbeats)")
		resend   = flag.Bool("resend", false, "re-report last aggregate after adoption (Figure 2(c) behaviour)")
		live     = flag.Bool("live", false, "run on real goroutines/channels instead of the simulator")
		metrics  = flag.String("metrics-addr", "", "with -live: serve Prometheus /metrics on this address for the run's duration")
		verbose  = flag.Bool("v", false, "print every detection at every level")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run here")
		memprof  = flag.String("memprofile", "", "write a heap profile taken after the run here")
		failures failureList
	)
	flag.Var(&failures, "fail", "inject failure node@time, or node@round with -live (repeatable)")
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hdmon:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hdmon:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hdmon:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hdmon:", err)
			}
			f.Close()
		}()
	}

	var topo *hierdet.Topology
	switch *shape {
	case "balanced":
		topo = hierdet.BalancedTreeN(*n, *degree)
	case "chain":
		topo = hierdet.ChainTree(*n)
	case "star":
		topo = hierdet.StarTree(*n)
	case "random":
		topo = hierdet.RandomTree(*n, *degree, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown shape %q\n", *shape)
		os.Exit(2)
	}

	// Keep the mix a valid distribution when only -pglobal was raised.
	if *pglobal+*pgroup > 1 {
		*pgroup = 1 - *pglobal
	}

	if *live {
		if *algo != "hier" {
			fmt.Fprintln(os.Stderr, "-live supports only the hierarchical algorithm")
			os.Exit(2)
		}
		runLive(topo, *rounds, *pglobal, *pgroup, *seed, failures, *resend, *verbose, *metrics)
		return
	}

	if *distrep {
		*hb = true
	}
	cfg := hierdet.SimConfig{
		Topology:          topo,
		Rounds:            *rounds,
		PGlobal:           *pglobal,
		PGroup:            *pgroup,
		Seed:              *seed,
		FIFO:              *fifo,
		Failures:          failures,
		Heartbeats:        *hb,
		DistributedRepair: *distrep,
		ResendLastOnAdopt: *resend,
		Verify:            true,
	}
	if *algo == "central" {
		cfg.Algorithm = hierdet.CentralizedAlgorithm
	} else if *algo != "hier" {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algo)
		os.Exit(2)
	}

	res := hierdet.Simulate(cfg)

	fmt.Printf("topology: %s, %d processes, height %d, degree %d; algorithm: %s; seed %d\n",
		*shape, topo.N(), topo.Height(), topo.Degree(), *algo, *seed)
	if len(failures) > 0 {
		fmt.Printf("failures injected: %v (crashed during run: %v)\n", []hierdet.Failure(failures), res.Failed)
	}

	roots := res.RootDetections()
	fmt.Printf("\nglobal/root detections: %d\n", len(roots))
	for _, d := range roots {
		fmt.Printf("  t=%-8d node %-3d covering %d processes\n", d.Time, d.Node, len(d.Det.Agg.Span))
	}
	if lats := res.RootLatencies(); len(lats) > 0 {
		var sum, max int64
		for _, l := range lats {
			sum += int64(l)
			if int64(l) > max {
				max = int64(l)
			}
		}
		fmt.Printf("detection latency after round completion: mean %dt, max %dt\n",
			sum/int64(len(lats)), max)
	}
	if *verbose {
		fmt.Printf("\nall detections (%d):\n", len(res.Detections))
		for _, d := range res.Detections {
			kind := "group"
			if d.AtRoot {
				kind = "ROOT"
			}
			fmt.Printf("  t=%-8d %-5s node %-3d span %v\n", d.Time, kind, d.Node, d.Det.Agg.Span)
		}
	}

	fmt.Println()
	if err := res.WriteSummary(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "summary: %v\n", err)
		os.Exit(1)
	}
}

// runLive executes the workload on the live runtime: one goroutine per
// process, reports racing over channels, failures crash-stopped at round
// boundaries and repaired by heartbeats plus the distributed attach protocol.
func runLive(topo *hierdet.Topology, rounds int, pglobal, pgroup float64, seed int64, failures failureList, resend, verbose bool, metricsAddr string) {
	exec := hierdet.GenerateWorkload(topo, rounds, seed, pglobal, pgroup, 0)

	// In live mode a failure's time is the round boundary it lands on.
	for _, f := range failures {
		if f.Node < 0 || f.Node >= topo.N() {
			fmt.Fprintf(os.Stderr, "-fail %d@%d: no such process (topology has %d)\n",
				f.Node, f.At, topo.N())
			os.Exit(2)
		}
	}
	sort.Slice(failures, func(i, j int) bool { return failures[i].At < failures[j].At })

	repaired := make(chan hierdet.LiveRepair, topo.N())
	cluster := hierdet.NewLiveCluster(hierdet.LiveConfig{
		Topology: topo, Seed: seed, Verify: true,
		Failure: hierdet.LiveFailureOptions{
			HbEvery:           500 * time.Microsecond,
			ResendLastOnAdopt: resend,
		},
		Events: func(e hierdet.Event) {
			if e.Kind == hierdet.EventRepairConcluded {
				repaired <- hierdet.LiveRepair{Orphan: e.Node, NewParent: e.Peer}
			}
		},
	})
	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", cluster.Registry().Handler())
		go func() {
			if err := http.ListenAndServe(metricsAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "hdmon: metrics:", err)
			}
		}()
	}

	feed := func(lo, hi int) {
		var wg sync.WaitGroup
		for p := 0; p < topo.N(); p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for k := lo; k < hi && k < len(exec.Streams[p]); k++ {
					cluster.Observe(p, exec.Streams[p][k])
					time.Sleep(20 * time.Microsecond)
				}
			}(p)
		}
		wg.Wait()
	}

	start := time.Now()
	prev := 0
	for _, f := range failures {
		boundary := int(f.At)
		if boundary < 0 {
			boundary = 0
		}
		if boundary > rounds {
			boundary = rounds
		}
		feed(prev, boundary)
		prev = boundary
		cluster.Drain()
		orphans := cluster.Kill(f.Node)
		fmt.Printf("killed node %d after round %d: %d orphaned subtrees\n", f.Node, boundary, orphans)
		for i := 0; i < orphans; i++ {
			select {
			case r := <-repaired:
				if r.NewParent == hierdet.NoParent {
					fmt.Printf("  orphan %d: no live candidate, now a partition root\n", r.Orphan)
				} else {
					fmt.Printf("  orphan %d adopted by node %d\n", r.Orphan, r.NewParent)
				}
			case <-time.After(30 * time.Second):
				fmt.Fprintln(os.Stderr, "timed out waiting for tree repair")
				os.Exit(1)
			}
		}
		cluster.Drain()
	}
	feed(prev, rounds)
	cluster.Close()
	dets := cluster.Detections()
	elapsed := time.Since(start)

	fmt.Printf("\nlive run: %d processes, %d rounds in %v; failed: %v\n",
		topo.N(), rounds, elapsed.Round(time.Millisecond), cluster.Failed())
	roots := 0
	for _, d := range dets {
		if d.AtRoot {
			roots++
			if verbose {
				fmt.Printf("  ROOT  node %-3d span %d processes\n", d.Node, len(d.Det.Agg.Span))
			}
		}
	}
	fmt.Printf("root detections: %d (of %d total at all levels)\n", roots, len(dets))

	cm := cluster.ClusterMetrics()
	fmt.Printf("messages: %d in / %d out; duplicates dropped: %d; stale reports: %d; "+
		"reseq high water: %d; repairs: %d\n",
		cm.MsgsIn, cm.MsgsOut, cm.Duplicates, cm.StaleReports, cm.ReseqHighWater, cm.Repairs)
	if verbose {
		fmt.Println("\nper-node metrics:")
		fmt.Printf("  %-4s %6s %6s %5s %6s %5s %4s\n", "node", "in", "out", "dup", "detect", "buf^", "rep")
		for _, m := range cluster.MetricsByNode() {
			fmt.Printf("  %-4d %6d %6d %5d %6d %5d %4d\n",
				m.ID, m.MsgsIn, m.MsgsOut, m.Duplicates, m.Detections, m.ReseqHighWater, m.Repairs)
		}
	}
}
