package hierdet

import (
	"strings"
	"testing"
	"time"
)

// TestDistributedExpositionIncludesTransport runs a two-participant TCP
// deployment and checks each participant's registry carries the transport
// families next to the detector ones — the full scrape surface of a
// distributed node.
func TestDistributedExpositionIncludesTransport(t *testing.T) {
	topo := ChainTree(2)
	mkTransport := func() *TCPTransport {
		tr, err := NewTCPTransport(TCPConfig{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	trs := []*TCPTransport{mkTransport(), mkTransport()}
	addrs := map[int]string{0: trs[0].Addr(), 1: trs[1].Addr()}
	for _, tr := range trs {
		tr.SetPeers(addrs)
	}

	exec := GenerateWorkload(topo, 6, 3, 1, 0, 0)
	clusters := make([]*LiveCluster, 2)
	for id := 0; id < 2; id++ {
		clusters[id] = NewLiveCluster(LiveConfig{
			Topology: topo, Seed: 3, Verify: true,
			Distributed: LiveDistributedOptions{
				Transport:  trs[id],
				LocalNodes: []int{id},
			},
		})
	}
	for k := 0; k < 6; k++ {
		for id := 0; id < 2; id++ {
			clusters[id].Observe(id, exec.Streams[id][k])
		}
	}
	// The root eventually sees all 6 pulses flow in over TCP.
	deadline := time.Now().Add(20 * time.Second)
	for clusters[0].ClusterMetrics().Detections < 6 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for detections over the transport")
		}
		time.Sleep(2 * time.Millisecond)
	}

	var sb strings.Builder
	if err := clusters[0].Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE hierdet_transport_frames_in_total counter",
		"# TYPE hierdet_transport_frames_out_total counter",
		"hierdet_transport_bytes_in_total",
		"hierdet_transport_bytes_out_total",
		"hierdet_transport_dials_total",
		"hierdet_transport_redelivery_ring",
		"hierdet_node_msgs_in_total",
		"hierdet_sched_workers",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("distributed exposition missing %q", want)
		}
	}
	st := trs[0].Stats()
	if st.BytesIn == 0 {
		t.Error("transport BytesIn stayed zero on a run that received frames")
	}

	for id := 1; id >= 0; id-- {
		clusters[id].Close()
	}
}
