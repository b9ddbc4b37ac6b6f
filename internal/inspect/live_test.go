package inspect

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/fault"
	"urcgc/internal/faultrt"
	"urcgc/internal/health"
	"urcgc/internal/mid"
	"urcgc/internal/nodehttp"
	"urcgc/internal/obs"
	"urcgc/internal/topics"
)

// freePorts grabs n distinct loopback UDP ports.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	conns := make([]*net.UDPConn, n)
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		addrs[i] = c.LocalAddr().String()
	}
	for _, c := range conns {
		c.Close()
	}
	return addrs
}

// TestInspectSmoke boots three real UDP members, each serving the full
// nodehttp surface with its own registry and flight recorder, and checks
// that one inspection round reconstructs a healthy, agreeing cluster —
// the same path `make inspect-smoke` drives through the built binaries.
func TestInspectSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	const n = 3
	peers := freePorts(t, n)
	obsAddrs := make([]string, n)
	for i := 0; i < n; i++ {
		reg := obs.New()
		node, err := topics.NewMultiNode(topics.Config{
			Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
			Self:          mid.ProcID(i),
			Peers:         peers,
			RoundDuration: 3 * time.Millisecond,
			Metrics:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		flight := obs.NewFlight(reg, obs.FlightOptions{Interval: 25 * time.Millisecond, Cap: 256})
		mux := nodehttp.Mux(nodehttp.Options{
			Registry: reg,
			Flight:   flight,
			Health:   health.NewEvaluator(flight, strconv.Itoa(i), health.Thresholds{}),
			Status:   node.Status,
		})
		ln, err := nodehttp.Serve("127.0.0.1:0", mux)
		if err != nil {
			t.Fatal(err)
		}
		obsAddrs[i] = ln.Addr().String()
		node.Start()
		flight.Start()
		t.Cleanup(func() { flight.Stop(); node.Stop(); ln.Close() })

		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		const perNode = 4
		for k := 0; k < perNode; k++ {
			go func(node *topics.MultiNode, i, k int) {
				if _, err := node.Send(ctx, 0, []byte(fmt.Sprintf("s%d-%d", i, k)), nil); err != nil {
					t.Errorf("node %d send: %v", i, err)
				}
			}(node, i, k)
		}
		defer cancel()
	}

	cfg := Config{Nodes: obsAddrs, Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	var r Report
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		r = Collect(ctx, cfg)
		cancel()
		// Healthy, agreeing, and with real progress: every member's
		// frontier must cover the whole burst (3 nodes x 4 messages).
		if r.Healthy && r.ViewsAgree && r.MinFrontier >= 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never inspected healthy: %s\nproblems: %+v", Summary(r), r.Problems)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i, p := range r.Nodes {
		if !p.Reachable || p.Status == nil || int(p.Status.ID) != i {
			t.Fatalf("probe %d: %+v", i, p)
		}
		if p.Health == nil || !p.Health.Healthy {
			t.Errorf("node %d /healthz: %+v", i, p.Health)
		}
		if len(p.Status.HistoryBySender) != n {
			t.Errorf("node %d per-sender occupancy: %v", i, p.Status.HistoryBySender)
		}
	}
}

// TestInspectPartitionRecovery is the acceptance demo as a test: a live
// five-member in-process cluster inspects healthy; a faultrt partition
// isolates member 4 and inspect flags the divergence naming it; the cut
// heals and the cluster inspects healthy again with the stability
// frontier past its pre-fault mark. The partition is shorter than the K
// detection window, so no one is declared crashed — from outside it shows
// up exactly as the paper predicts: stability halts group-wide while the
// majority keeps processing and the cut-off member falls behind.
func TestInspectPartitionRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live run")
	}
	const (
		n     = 5
		round = 2 * time.Millisecond
		from  = 4 * time.Second // partition window on the hook clock
		to    = 5500 * time.Millisecond
	)
	reg := obs.New()
	hook := faultrt.NewHook(fault.Partition{
		From: fault.Time(from), To: fault.Time(to), SideA: map[mid.ProcID]bool{4: true},
	}, reg)
	// K far above the subruns a partition window can span, so neither side
	// declares the other crashed; SelfExclusion off so nobody leaves.
	c, err := topics.NewMultiCluster(topics.Config{
		Config:        core.Config{N: n, K: 600, R: 1202, SelfExclusion: false},
		RoundDuration: round,
		Metrics:       reg,
		Fault:         hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	flight := obs.NewFlight(reg, obs.FlightOptions{Interval: 25 * time.Millisecond, Cap: 1024})
	flight.Start()
	defer flight.Stop()

	th := health.Thresholds{
		TokenStallSamples: 10, HistoryWindow: 8, HistoryGrowthMin: 24,
		WaitingStuckSamples: 12, FrontierLagWindow: 8, FrontierLagMin: 8,
	}
	obsAddrs := make([]string, n)
	for i := 0; i < n; i++ {
		node := c.Node(mid.ProcID(i))
		mux := nodehttp.Mux(nodehttp.Options{
			Registry: reg,
			Flight:   flight,
			Health:   health.NewEvaluator(flight, strconv.Itoa(i), th),
			Status:   node.Status,
		})
		ln, err := nodehttp.Serve("127.0.0.1:0", mux)
		if err != nil {
			t.Fatal(err)
		}
		obsAddrs[i] = ln.Addr().String()
		t.Cleanup(func() { ln.Close() })
	}

	// Steady load from the majority side for the whole run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				case <-time.After(10 * time.Millisecond):
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				_, err := c.Node(mid.ProcID(i)).Send(ctx, 0, []byte(fmt.Sprintf("l%d-%d", i, seq)), nil)
				cancel()
				if err != nil {
					select {
					case <-stop:
					default:
						t.Errorf("node %d send %d: %v", i, seq, err)
					}
					return
				}
			}
		}(i)
	}
	defer func() { close(stop); wg.Wait() }()

	cfg := Config{Nodes: obsAddrs, Timeout: 2 * time.Second, FrontierSkew: 25, StallWindow: 10}
	inspectOnce := func() Report {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return Collect(ctx, cfg)
	}

	// Phase 1: healthy before the fault, with stability demonstrably
	// advancing.
	var before Report
	for {
		before = inspectOnce()
		if before.Healthy && before.ViewsAgree && before.MinFrontier > 0 {
			break
		}
		if hook.Elapsed() > from-500*time.Millisecond {
			t.Fatalf("never healthy before the partition window: %s\nproblems: %+v",
				Summary(before), before.Problems)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Logf("pre-fault: %s", Summary(before))

	// Phase 2: during the partition, inspect must flag divergence naming
	// the cut-off member.
	for hook.Elapsed() < from {
		time.Sleep(10 * time.Millisecond)
	}
	var flagged bool
	var during Report
	for hook.Elapsed() < to-200*time.Millisecond {
		during = inspectOnce()
		if !during.Healthy {
			for _, p := range during.Problems {
				for _, addr := range p.Nodes {
					if strings.Contains(addr, obsAddrs[4]) {
						flagged = true
					}
				}
			}
			if flagged {
				break
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !flagged {
		t.Fatalf("partition never flagged naming the cut-off member: %s\nproblems: %+v",
			Summary(during), during.Problems)
	}
	t.Logf("during fault: %s", Summary(during))

	// Phase 3: after the heal everything recovers — healthy verdict, views
	// agreed, and the frontier past its pre-fault mark (stability resumed
	// and covered the traffic sent through the fault window).
	deadline := time.Now().Add(30 * time.Second)
	var after Report
	for {
		after = inspectOnce()
		if after.Healthy && after.ViewsAgree && after.MinFrontier > before.MaxFrontier {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never recovered: %s\nproblems: %+v", Summary(after), after.Problems)
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Logf("post-heal: %s", Summary(after))
}
