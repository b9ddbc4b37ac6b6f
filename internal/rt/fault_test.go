package rt_test

import (
	"context"
	"fmt"
	"testing"
	"time"
	"urcgc/internal/topics"

	"urcgc/internal/core"
	"urcgc/internal/fault"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// TestMeshFaultHookCrashAndConverge runs the in-process mesh with a fault
// hook at its transport boundary: a scheduled crash plus send omissions,
// delays and duplicates. The clock must fail-stop the scheduled process,
// the survivors must still converge, and the per-kind injection counters
// must be live on the registry.
func TestMeshFaultHookCrashAndConverge(t *testing.T) {
	reg := obs.New()
	hook := faultrt.NewHook(fault.Multi{
		fault.Crash{Proc: 2, At: fault.Time(30 * time.Millisecond)},
		&fault.EveryNth{N: 40, Side: fault.AtSend},
		fault.NewDelayEvery(25, fault.Time(time.Millisecond), fault.Time(time.Millisecond), fault.AtRecv, 5),
		&fault.DupEvery{N: 30, Copies: 1, Side: fault.AtSend},
	}, reg)
	cfg := liveConfig(4)
	cfg.Metrics = reg
	cfg.Fault = hook
	c, err := topics.NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const perNode = 6
	want := make(mid.SeqVector, 4)
	for k := 0; k < perNode; k++ {
		for i := 0; i < 3; i++ { // node 3... node 2 crashes mid-run; load the others
			if i == 2 {
				continue
			}
			if _, err := c.Node(mid.ProcID(i)).Send(ctx, 0, []byte(fmt.Sprintf("m%d-%d", i, k)), nil); err != nil {
				t.Fatalf("node %d send %d: %v", i, k, err)
			}
			want[i]++
		}
	}
	waitConverged(t, c, want, 20*time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for !c.Node(2).Killed() {
		if time.Now().After(deadline) {
			t.Fatal("scheduled crash of node 2 never fail-stopped it")
		}
		time.Sleep(2 * time.Millisecond)
	}
	inj := hook.Injected()
	for _, kind := range []string{"crash", "drop", "delay", "duplicate"} {
		if inj[kind] == 0 {
			t.Errorf("no %s fault was ever injected: %v", kind, inj)
		}
		if reg.Snapshot()[obs.Labeled("faultrt_injected_total", "kind", kind)] == 0 {
			t.Errorf("faultrt_injected_total{kind=%q} not exported", kind)
		}
	}
}

// TestUDPGroupConvergesUnderFaults reruns the UDP convergence test with a
// fault hook on every member's socket boundary injecting omissions and
// duplicates; the protocol must recover everything.
func TestUDPGroupConvergesUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	const n = 3
	peers := freePorts(t, n)
	nodes := make([]*topics.MultiNode, n)
	for i := 0; i < n; i++ {
		node, err := topics.NewMultiNode(topics.Config{
			Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
			Self:          mid.ProcID(i),
			Peers:         peers,
			RoundDuration: 3 * time.Millisecond,
			Fault: faultrt.NewHook(fault.Multi{
				&fault.EveryNth{N: 25, Side: fault.AtSend},
				&fault.EveryNth{N: 25, Side: fault.AtRecv},
				&fault.DupEvery{N: 20, Copies: 1, Side: fault.AtSend},
			}, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for _, node := range nodes {
		node.Start()
	}
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const perNode = 4
	for k := 0; k < perNode; k++ {
		for i := 0; i < n; i++ {
			if _, err := nodes[i].Send(ctx, 0, []byte(fmt.Sprintf("f%d-%d", i, k)), nil); err != nil {
				t.Fatalf("node %d send %d: %v", i, k, err)
			}
		}
	}
	want := mid.SeqVector{perNode, perNode, perNode}
	deadline := time.Now().Add(20 * time.Second)
	for {
		ok := true
		for i := 0; i < n; i++ {
			var got mid.SeqVector
			sctx, scancel := context.WithTimeout(ctx, 2*time.Second)
			err := nodes[i].Snapshot(sctx, 0, func(p *core.Process) { got = p.Processed().Clone() })
			scancel()
			if err != nil || !got.Equal(want) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("UDP group never converged under injected faults")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
