// Livecluster: the detector on real goroutines and channels — one goroutine
// per process, reports racing each other over asynchronous links — rather
// than the deterministic simulator the other examples use.
//
// Fifteen processes form a binary tree. Each process runs in its own
// goroutine, produces its local-predicate intervals, and hands them to its
// detector node; aggregates travel parent-ward with random delays, arriving
// out of order and being resequenced. Every occurrence of the global
// predicate is still detected, exactly once.
//
// Run:
//
//	go run ./examples/livecluster
package main

import (
	"fmt"
	"sync"
	"time"

	"hierdet"
)

func main() {
	const rounds = 10
	topo := hierdet.BalancedTree(2, 3) // 15 processes

	// The recorded execution fixes causality (which rounds synchronize);
	// the live cluster then races its delivery for real.
	exec := hierdet.GenerateWorkload(topo, rounds, 99, 0.6, 0.2, 0)

	cluster := hierdet.NewLiveCluster(hierdet.LiveConfig{
		Topology: topo,
		Seed:     99,
		Verify:   true,
		Delivery: hierdet.LiveDeliveryOptions{
			MaxDelay: time.Millisecond, // force heavy reordering
		},
	})

	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < topo.N(); p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for _, iv := range exec.Streams[p] {
				cluster.Observe(p, iv)
				time.Sleep(50 * time.Microsecond) // the process's own pacing
			}
		}(p)
	}
	wg.Wait()
	cluster.Close()
	dets := cluster.Detections()
	elapsed := time.Since(start)

	global, group := 0, 0
	for _, d := range dets {
		if d.AtRoot && len(d.Det.Agg.Span) == topo.N() {
			global++
		} else if !d.AtRoot && len(d.Det.Agg.Span) > 1 {
			group++
		}
	}
	fmt.Printf("%d goroutine-processes over channel links, %d rounds in %v\n",
		topo.N(), rounds, elapsed.Round(time.Millisecond))
	fmt.Printf("detections: %d global (all %d processes), %d group-level\n",
		global, topo.N(), group)

	expected := exec.ExpectedDetections(topo.Subtree(0))
	fmt.Printf("ground truth: the global predicate held %d times → detected %d/%d despite reordering\n",
		expected, global, expected)

	// The runtime keeps per-node counters; the resequencer high-water mark
	// shows how much reordering the random delays actually produced.
	msgs, high := 0, 0
	for _, m := range cluster.Metrics() {
		msgs += m.MsgsIn
		if m.ReseqHighWater > high {
			high = m.ReseqHighWater
		}
	}
	fmt.Printf("runtime metrics: %d reports delivered, worst resequencer backlog %d\n", msgs, high)
}
