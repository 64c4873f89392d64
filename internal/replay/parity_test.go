package replay

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"hierdet/internal/core"
	"hierdet/internal/obsv"
	"hierdet/internal/trace"
	"hierdet/internal/tree"
)

// offScriptCounts tallies the recorded node_suspected and repair_concluded
// events — used to tell a legitimate off-script downgrade (heartbeats stalled
// under load, extra failure-detector activity) apart from a
// determinism-classifier bug.
func offScriptCounts(tr *Trace) (sus, rep int) {
	for _, e := range tr.Events {
		switch obsv.EventKind(e.Kind) {
		case obsv.NodeSuspected:
			sus++
		case obsv.RepairConcluded:
			rep++
		}
	}
	return sus, rep
}

// checkSound runs the ground-truth checker over a detection list (recordings
// run with KeepMembers, so aggregates expand to base intervals).
func checkSound(t *testing.T, r *Result) {
	t.Helper()
	dets := make([]core.Detection, len(r.Detections))
	for i, d := range r.Detections {
		dets[i] = d.Det
	}
	if err := trace.CheckAll(dets); err != nil {
		t.Fatalf("replayed detections unsound: %v", err)
	}
}

// replayOn decodes-and-replays a trace on one plane and asserts byte parity.
func replayOn(t *testing.T, tr *Trace, plane string) {
	t.Helper()
	rp, err := NewReplayer(tr, ReplayerConfig{Plane: plane})
	if err != nil {
		t.Fatalf("NewReplayer(%s): %v", plane, err)
	}
	res, err := rp.Run()
	if err != nil {
		rp.Close()
		t.Fatalf("replay on %s: %v", plane, err)
	}
	if !res.Match {
		if !res.Deterministic {
			// The replay itself went off-script (a heartbeat stalled under
			// load and a live subtree was spuriously detached) — parity is
			// not a verdict on such a run.
			t.Logf("replay on %s went off-script; parity skipped", plane)
		} else {
			t.Fatalf("replay on %s diverged: recorded %d detections (%d bytes), replayed %d (%d bytes)",
				plane, tr.Detections, len(tr.Outcome), len(res.Detections), len(res.Outcome))
		}
	}
	checkSound(t, res)
}

// TestRecordReplayParity is the tentpole property: a chaotic live run — a
// three-participant TCP deployment, a leaf crash-stop mid-run — recorded
// once, then replayed byte-identically through every delivery plane from
// the decoded trace alone.
func TestRecordReplayParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live recording")
	}
	topo := tree.Balanced(2, 2) // 7 nodes: 0 root, 1-2 inner, 3-6 leaves
	victim := -1
	for i := 0; i < topo.N(); i++ {
		if topo.IsLeaf(i) {
			victim = i
			break
		}
	}
	rec, err := NewRecorder(RecorderConfig{
		Topology: topo,
		Workload: WorkloadSpec{Rounds: 8, Seed: 41, PGlobal: 1},
		Schedule: []Step{
			{Kind: StepObserve, Lo: 0, Hi: 3},
			{Kind: StepKill, Node: victim},
			{Kind: StepObserve, Lo: 3, Hi: 8},
		},
		Plane:        PlaneSharded,
		Delivery:     DeliveryOptions{Seed: 17},
		Failure:      FailureOptions{HbEvery: 2 * time.Millisecond},
		Participants: [][]int{{0, 1, 2}, {3, 4}, {5, 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Run()
	if err != nil {
		rec.Close()
		t.Fatal(err)
	}
	if !tr.Deterministic {
		// A leaf kill expects exactly one suspicion (the parent's) and no
		// repairs; more means the run went off-script and the downgrade is
		// legitimate.
		if sus, rep := offScriptCounts(tr); sus > 1 || rep > 0 {
			t.Skipf("recording went off-script (%d suspicions, %d repairs for a leaf kill); determinism legitimately downgraded", sus, rep)
		}
		t.Fatal("leaf-kill schedule classified nondeterministic")
	}
	if tr.Detections == 0 {
		t.Fatal("recording produced no detections")
	}
	if len(tr.Events) == 0 {
		t.Fatal("recording captured no events")
	}

	// The trace must survive its own codec before replay trusts it.
	decoded, err := DecodeTrace(AppendTrace(nil, tr))
	if err != nil {
		t.Fatalf("recorded trace does not decode: %v", err)
	}
	if !bytes.Equal(decoded.Outcome, tr.Outcome) {
		t.Fatal("outcome corrupted by codec round trip")
	}
	for _, plane := range Planes() {
		plane := plane
		t.Run(plane, func(t *testing.T) { replayOn(t, decoded, plane) })
	}
}

// TestRecordReplayPartitionKill covers the other deterministic kill class:
// on a tree-links-only topology an orphaned subtree has no candidates and
// deterministically continues as a partition root.
func TestRecordReplayPartitionKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live recording")
	}
	topo := tree.Balanced(2, 2)
	topo.UseTreeLinksOnly()
	rec, err := NewRecorder(RecorderConfig{
		Topology: topo,
		Workload: WorkloadSpec{Rounds: 6, Seed: 5, PGlobal: 1},
		Schedule: []Step{
			{Kind: StepObserve, Lo: 0, Hi: 3},
			{Kind: StepKill, Node: 1}, // inner node: orphans its two children
			{Kind: StepObserve, Lo: 3, Hi: 6},
		},
		Plane:   PlaneParallel,
		Failure: FailureOptions{HbEvery: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Run()
	if err != nil {
		rec.Close()
		t.Fatal(err)
	}
	if !tr.TreeLinksOnly {
		t.Fatal("tree-links-only topology not recorded as such")
	}
	if !tr.Deterministic {
		// Killing node 1 expects three suspicions (its two orphans' plus the
		// root's) and two repairs; more means the run went off-script.
		if sus, rep := offScriptCounts(tr); sus > 3 || rep > 2 {
			t.Skipf("recording went off-script (%d suspicions, %d repairs); determinism legitimately downgraded", sus, rep)
		}
		t.Fatal("partition kill on tree links classified nondeterministic")
	}
	replayOn(t, tr, PlaneSharded)
	replayOn(t, tr, PlaneParallel)
}

// TestAdoptionKillClassifiedNondeterministic: killing an inner node on a
// complete graph lets orphans race for adopters — the recorder must mark
// the trace nondeterministic, and replay must still run and stay sound.
func TestAdoptionKillClassifiedNondeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live recording")
	}
	rec, err := NewRecorder(RecorderConfig{
		Topology: tree.Balanced(2, 2),
		Workload: WorkloadSpec{Rounds: 4, Seed: 3, PGlobal: 1},
		Schedule: []Step{
			{Kind: StepObserve, Lo: 0, Hi: 2},
			{Kind: StepKill, Node: 1},
			{Kind: StepObserve, Lo: 2, Hi: 4},
		},
		Plane:   PlaneSharded,
		Failure: FailureOptions{HbEvery: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Run()
	if err != nil {
		rec.Close()
		t.Fatal(err)
	}
	if tr.Deterministic {
		t.Fatal("adoption-class kill wrongly classified deterministic")
	}
	rp, err := NewReplayer(tr, ReplayerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rp.Run()
	if err != nil {
		rp.Close()
		t.Fatal(err)
	}
	checkSound(t, res) // soundness must hold even where parity cannot
}

// TestReplayTraceFromDeletedPlane: a trace recorded on a plane this build no
// longer offers still decodes; replaying it on its recorded plane is a typed
// misuse error naming Plane, and an explicit override replays it with
// outcome parity — the outcome never depended on the plane.
func TestReplayTraceFromDeletedPlane(t *testing.T) {
	tr := recordQuick(t)
	tr.Plane = "batched"
	dec, err := DecodeTrace(AppendTrace(nil, tr))
	if err != nil {
		t.Fatalf("trace naming a deleted plane does not decode: %v", err)
	}
	if dec.Plane != "batched" {
		t.Fatalf("decoded plane = %q, want %q", dec.Plane, "batched")
	}
	_, err = NewReplayer(dec, ReplayerConfig{})
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Plane" {
		t.Fatalf("NewReplayer on the recorded plane: error = %v, want *ConfigError on Plane", err)
	}
	replayOn(t, dec, PlaneParallel)
}

// TestReplaySpeedPacing: a paced replay honours the recorded step offsets.
func TestReplaySpeedPacing(t *testing.T) {
	tr := recordQuick(t)
	// Stretch the recorded offsets so pacing is measurable, then replay at
	// 2×: the run must take at least half the final offset.
	last := len(tr.Schedule) - 1
	tr.Schedule[last].At = int64(200 * time.Millisecond)
	rp, err := NewReplayer(tr, ReplayerConfig{Speed: 2})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := rp.Run()
	if err != nil {
		rp.Close()
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("2× replay of a 200ms schedule finished in %v", elapsed)
	}
	if !res.Match {
		t.Fatal("paced replay diverged")
	}
}

// recordQuick records a small kill-free single-cluster run.
func recordQuick(t *testing.T) *Trace {
	t.Helper()
	rec, err := NewRecorder(RecorderConfig{
		Topology: tree.Star(4),
		Workload: WorkloadSpec{Rounds: 3, Seed: 9, PGlobal: 1},
		Schedule: []Step{{Kind: StepObserve, Lo: 0, Hi: 3}},
		Plane:    PlaneSharded,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Run()
	if err != nil {
		rec.Close()
		t.Fatal(err)
	}
	return tr
}

// TestRecorderValidation pins the typed misuse errors.
func TestRecorderValidation(t *testing.T) {
	base := func() RecorderConfig {
		return RecorderConfig{
			Topology: tree.Star(3),
			Workload: WorkloadSpec{Rounds: 2, Seed: 1, PGlobal: 1},
			Schedule: []Step{{Kind: StepObserve, Lo: 0, Hi: 2}},
			Plane:    PlaneSharded,
		}
	}
	cases := map[string]struct {
		mut   func(*RecorderConfig)
		field string
	}{
		"nil topology": {func(c *RecorderConfig) { c.Topology = nil }, "Topology"},
		"custom links": {func(c *RecorderConfig) {
			c.Topology = tree.Star(4)
			c.Topology.UseTreeLinksOnly()
			c.Topology.AddLink(1, 2)
		}, "Topology"},
		"bad plane":     {func(c *RecorderConfig) { c.Plane = "warp" }, "Plane"},
		"no rounds":     {func(c *RecorderConfig) { c.Workload.Rounds = 0 }, "Workload.Rounds"},
		"bad mix":       {func(c *RecorderConfig) { c.Workload.PGlobal, c.Workload.PGroup = 0.8, 0.8 }, "Workload"},
		"step past end": {func(c *RecorderConfig) { c.Schedule = []Step{{Kind: StepObserve, Lo: 0, Hi: 5}} }, "Schedule"},
		"kill no hb":    {func(c *RecorderConfig) { c.Schedule = append(c.Schedule, Step{Kind: StepKill, Node: 1}) }, "Failure.HbEvery"},
		"double kill": {func(c *RecorderConfig) {
			c.Failure.HbEvery = time.Millisecond
			c.Schedule = append(c.Schedule, Step{Kind: StepKill, Node: 1}, Step{Kind: StepKill, Node: 1})
		}, "Schedule"},
		"partial hosting": {func(c *RecorderConfig) { c.Participants = [][]int{{0, 1}} }, "Participants"},
		"doubled hosting": {func(c *RecorderConfig) { c.Participants = [][]int{{0, 1}, {1, 2}} }, "Participants"},
		"unknown step":    {func(c *RecorderConfig) { c.Schedule = []Step{{Kind: 9}} }, "Schedule"},
		"victim of range": {func(c *RecorderConfig) {
			c.Failure.HbEvery = time.Millisecond
			c.Schedule = append(c.Schedule, Step{Kind: StepKill, Node: 7})
		}, "Schedule"},
		"negative prob": {func(c *RecorderConfig) { c.Workload.PGlobal = -0.5 }, "Workload"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			_, err := NewRecorder(cfg)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error = %v (%T), want *ConfigError", err, err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
	// Replayer misuse is typed the same way.
	if _, err := NewReplayer(nil, ReplayerConfig{}); err == nil || !errors.As(err, new(*ConfigError)) {
		t.Fatalf("NewReplayer(nil) error = %v, want *ConfigError", err)
	}
	tr := &Trace{Parents: []int{tree.None}, Plane: PlaneSharded, Workload: WorkloadSpec{Rounds: 1}}
	if _, err := NewReplayer(tr, ReplayerConfig{Speed: -1}); err == nil || !errors.As(err, new(*ConfigError)) {
		t.Fatalf("negative speed error = %v, want *ConfigError", err)
	}
}

// TestRecorderShutdownLifecycle: Shutdown with an expired context leaves
// the deployment running (retryable), Close still releases it.
func TestRecorderLifecycle(t *testing.T) {
	rec, err := NewRecorder(RecorderConfig{
		Topology: tree.Star(3),
		Workload: WorkloadSpec{Rounds: 2, Seed: 2, PGlobal: 1},
		Schedule: []Step{{Kind: StepObserve, Lo: 0, Hi: 2}},
		Plane:    PlaneSharded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close after Shutdown: %v", err)
	}
}

// TestOutcomeCanonicalOrder: merging participant lists in any order yields
// one canonical encoding.
func TestOutcomeCanonicalOrder(t *testing.T) {
	tr := recordQuick(t)
	dec, err := DecodeTrace(AppendTrace(nil, tr))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(dec, ReplayerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rp.Run()
	if err != nil {
		rp.Close()
		t.Fatal(err)
	}
	// Shuffle then re-encode: canonical order must absorb any permutation.
	dets := append(res.Detections[:0:0], res.Detections...)
	for i, j := 0, len(dets)-1; i < j; i, j = i+1, j-1 {
		dets[i], dets[j] = dets[j], dets[i]
	}
	reEnc, n := AppendOutcome(nil, dets)
	if n != len(dets) || !bytes.Equal(reEnc, res.Outcome) {
		t.Fatal("outcome encoding depends on input order")
	}
}
