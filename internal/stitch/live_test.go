package stitch

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/nodehttp"
	"urcgc/internal/topics"
)

// TestTraceStuckMessageEndToEnd is the acceptance demo as a test: member
// 2 never receives member 0's group-1 dependency, member 1's causal send
// on top of it parks at member 2, and Collect+Stitch over the real
// per-node /trace surface must name the blocking member and the
// dependency MID.
//
// The scenario is built so the gap cannot heal before the blocked message
// lands. Member 2 learns that a message is missing only from a decision
// or from a coordinator's requests, and recovers it from the decision's
// most-updated holder: the lowest-id member that reported the sequence's
// maximum, so the origin, member 0, whenever its request reached the
// coordinator. The hold on group-1 frames into member 2 has three phases:
//
//   - all: while the dependency spreads, every group-1 frame into member
//     2 is dropped, so it learns nothing;
//   - from member 1: once member 1 has processed the dependency, only
//     member 1's frames pass, so its causal send arrives and parks. A
//     decision member 2 sees now names member 0 as holder, whose frames
//     stay withheld;
//   - all again, as soon as the blocked message shows on member 2's
//     /trace: were member 2 coordinating, member 1's request alone would
//     name member 1 as holder at the next decision phase, a round later.
//
// Long rounds keep the last step race-free: it needs milliseconds.
func TestTraceStuckMessageEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster and timers")
	}
	const (
		n     = 3
		round = 300 * time.Millisecond
		none  = -1 // hold: withhold nothing
		all   = n  // hold: withhold every group-1 frame into member 2
	)

	// hold names the only member whose group-1 frames still reach member
	// 2, or none / all.
	var hold atomic.Int32
	hold.Store(none)
	cl, err := topics.NewMultiCluster(topics.Config{
		// K far above what the test can span keeps the one-sided silence
		// from becoming a crash declaration.
		Config: core.Config{
			N: n, K: 600, R: 1202, SelfExclusion: false,
			BatchMax: core.DefaultBatchMax,
		},
		Groups:        2,
		RoundDuration: round,
		Lifecycle: &lifecycle.Options{
			SlowThreshold: 50 * time.Millisecond,
		},
		DropFrame: func(group uint32, src, dst mid.ProcID) bool {
			h := hold.Load()
			return h != none && group == 1 && dst == 2 && int32(src) != h
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	defer cl.Stop()

	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		node := cl.Node(mid.ProcID(i))
		mux := nodehttp.Mux(nodehttp.Options{LifecycleGroups: node.Lifecycles})
		ln, err := nodehttp.Serve("127.0.0.1:0", mux)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		t.Cleanup(func() { ln.Close() })
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Both groups flowing first, so the stitch also joins healthy
	// completed spans; member 2 must hold member 0's group-1 warm-up before
	// the hold starts, so the one gap it later lacks is the dependency.
	if _, err := cl.Node(0).Send(ctx, 0, []byte("ok"), nil); err != nil {
		t.Fatal(err)
	}
	warm, err := cl.Node(0).Send(ctx, 1, []byte("warm"), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, ctx, cl.Node(2), warm)

	// Member 0 broadcasts the dependency while member 2 hears nothing of
	// group 1; member 1 processes it.
	hold.Store(all)
	dep, err := cl.Node(0).Send(ctx, 1, []byte("withheld"), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, ctx, cl.Node(1), dep)

	// Member 1's causal send depends on everything it processed — the
	// withheld message included — and is the one stream into member 2.
	hold.Store(1)
	blocked, err := cl.Node(1).SendCausal(ctx, 1, []byte("blocked"))
	if err != nil {
		t.Fatal(err)
	}
	arrival := time.Now().Add(30 * time.Second)
	for {
		nt := collectOne(Config{Nodes: []string{addrs[2]}, Group: 1}.fill(), addrs[2])
		if hasSpan(nt, blocked.String()) {
			break
		}
		if time.Now().After(arrival) {
			t.Fatalf("blocked message never reached member 2: %+v", nt)
		}
		time.Sleep(5 * time.Millisecond)
	}
	hold.Store(all)

	deadline := time.Now().Add(30 * time.Second)
	var rep *Report
	for {
		rep = Stitch(Collect(Config{Nodes: addrs, Group: -1}))
		if blockedOn(rep, blocked.String(), dep) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stitched report never attributed the stall to %s:\n%s", dep, dump(rep))
		}
		time.Sleep(100 * time.Millisecond)
	}

	var sb strings.Builder
	rep.Write(&sb, 10)
	out := sb.String()
	if !strings.Contains(out, dep.String()) || !strings.Contains(out, "member 0") {
		t.Fatalf("text report does not name the blocking member and MID:\n%s", out)
	}
}

// waitProcessed polls until the member has processed id in group 1.
func waitProcessed(t *testing.T, ctx context.Context, node *topics.MultiNode, id mid.MID) {
	t.Helper()
	for {
		var have mid.Seq
		if err := node.Snapshot(ctx, 1, func(p *core.Process) { have = p.Processed()[id.Proc] }); err != nil {
			t.Fatal(err)
		}
		if have >= id.Seq {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// hasSpan reports whether one node's collected reports mention the MID.
func hasSpan(nt NodeTrace, mid string) bool {
	for _, rep := range nt.Reports {
		for _, sv := range rep.Slowest {
			if sv.MID == mid {
				return true
			}
		}
		for _, sv := range rep.Recent {
			if sv.MID == mid {
				return true
			}
		}
	}
	return false
}

// blockedOn reports whether the stitched view holds the blocked group-1
// message stuck at member 2, attributed to the withheld dependency — which
// members 0 and 1 did see, so it must read as in flight elsewhere.
func blockedOn(r *Report, blockedMID string, dep mid.MID) bool {
	for _, m := range r.Messages {
		if m.Group != 1 || m.MID != blockedMID {
			continue
		}
		stuckAt2 := false
		for _, node := range m.StuckAt {
			if node == 2 {
				stuckAt2 = true
			}
		}
		if !stuckAt2 {
			continue
		}
		for _, b := range m.Blocked {
			if b.DepMID == dep.String() && b.DepMember == int(dep.Proc) && b.SeenAnywhere {
				return true
			}
		}
	}
	return false
}

func dump(r *Report) string {
	var sb strings.Builder
	r.Write(&sb, 0)
	return sb.String()
}
