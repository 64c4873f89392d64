package livenet

import (
	"math/rand"
	"testing"
	"time"

	"hierdet/internal/interval"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// TestLiveClusterRedelivery plays a duplicating network against the root:
// the leaves' report streams are injected directly into the delivery path,
// every report twice, both copies racing each other. The resequencer must
// deliver each link's stream exactly once and in order — duplicates of
// already-delivered reports and duplicates still buffered behind a gap are
// both dropped (the seed's resequencer overwrote the buffered copy and
// could re-deliver). Detection counts and Strict succession checking prove
// the streams stayed clean.
func TestLiveClusterRedelivery(t *testing.T) {
	topo := tree.Balanced(2, 1) // root 0, leaves 1 and 2
	const rounds = 12
	e := workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: 9, PGlobal: 1})
	c := New(Config{Topology: topo, Seed: 13, Strict: true, KeepMembers: true,
		MaxDelay: time.Millisecond})
	rng := rand.New(rand.NewSource(31))
	delay := func() time.Duration { return time.Duration(rng.Int63n(int64(time.Millisecond))) }

	for k := 0; k < rounds; k++ {
		c.Observe(0, e.Streams[0][k])
		for _, leaf := range []int{1, 2} {
			// A leaf's aggregate is its own interval; linkSeq is the round.
			msg := message{kind: msgReport, from: leaf, seq: k, iv: e.Streams[leaf][k]}
			c.post(0, msg, delay())
			c.post(0, msg, delay())
		}
	}
	dets := closeDets(c)

	roots := 0
	for _, d := range dets {
		if d.AtRoot {
			roots++
			if !interval.OverlapAll(interval.BaseIntervals(d.Det.Agg)) {
				t.Fatal("false detection")
			}
		}
	}
	if roots != rounds {
		t.Fatalf("root detections = %d, want %d (duplicates leaked or were lost)", roots, rounds)
	}
	m := c.Metrics()[0]
	if m.Duplicates != 2*rounds {
		t.Errorf("duplicates dropped = %d, want %d", m.Duplicates, 2*rounds)
	}
	if m.MsgsIn != 4*rounds {
		t.Errorf("messages in = %d, want %d", m.MsgsIn, 4*rounds)
	}
}
