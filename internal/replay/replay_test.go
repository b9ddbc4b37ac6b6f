package replay

import (
	"strings"
	"testing"

	"urcgc/internal/capture"
	"urcgc/internal/causal"
	"urcgc/internal/fault"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// frame marshals one PDU body the way the runtimes store it.
func frame(t *testing.T, pdu wire.PDU) []byte {
	t.Helper()
	b, err := wire.MarshalAppend(nil, pdu)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func data(t *testing.T, proc mid.ProcID, seq mid.Seq) []byte {
	t.Helper()
	return frame(t, &wire.Data{Msg: causal.Message{
		ID:      mid.MID{Proc: proc, Seq: seq},
		Payload: []byte("x"),
	}})
}

// cluster builds one ring per member with the founding shape stamped.
func cluster(n int) []*capture.Ring {
	rings := make([]*capture.Ring, n)
	for i := range rings {
		rings[i] = capture.New(capture.Options{Node: mid.ProcID(i), N: n, K: 2, R: 5})
	}
	return rings
}

func snapshots(rings []*capture.Ring) []*capture.Dump {
	out := make([]*capture.Dump, len(rings))
	for i, r := range rings {
		out[i] = r.Snapshot()
	}
	return out
}

// TestReplayCleanRun replays a faultless three-member exchange — every
// broadcast delivered everywhere — and expects a clean verdict.
func TestReplayCleanRun(t *testing.T) {
	rings := cluster(3)
	for _, origin := range []mid.ProcID{0, 1} {
		f := data(t, origin, 1)
		rings[origin].Record(capture.DirEgress, 0, mid.None, capture.Sent, 0, f)
		for i, r := range rings {
			if mid.ProcID(i) != origin {
				r.Record(capture.DirIngress, 0, origin, capture.Delivered, 0, f)
			}
		}
	}
	res, err := Run(snapshots(rings))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || len(res.Groups) != 1 {
		t.Fatalf("clean run verdict = %+v", res)
	}
	g := res.Groups[0]
	if len(g.Survivors) != 3 || g.Fed != 4 || g.SelfFed != 2 || len(g.Findings) != 0 {
		t.Fatalf("group result = %+v", g)
	}
}

// TestReplayReproducesIngressDrop re-runs a cluster where member 2's copy
// of p0#1 was destroyed at its ingress by an injected fault: the replay
// must report the atomicity breach at member 2 and blame exactly that
// ingress record.
func TestReplayReproducesIngressDrop(t *testing.T) {
	rings := cluster(3)
	f := data(t, 0, 1)
	rings[0].Record(capture.DirEgress, 0, mid.None, capture.Sent, 0, f)
	rings[1].Record(capture.DirIngress, 0, 0, capture.Delivered, 0, f)
	dropSeq := rings[2].Record(capture.DirIngress, 0, 0, capture.FaultDrop,
		fault.KindSet(0).With(fault.KindDrop), f)

	res, err := Run(snapshots(rings))
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Fatal("replay missed the violation")
	}
	g := res.Groups[0]
	if len(g.Findings) != 1 {
		t.Fatalf("findings = %+v", g.Findings)
	}
	fd := g.Findings[0]
	if fd.Invariant != "uniform-atomicity" || fd.Node != 2 || fd.MID != "p0#1" {
		t.Fatalf("finding = %+v", fd)
	}
	b := fd.Blocking
	if b == nil || b.Node != 2 || b.Seq != dropSeq || b.Verdict != "fault-drop" || b.Dir != "in" {
		t.Fatalf("blocking frame = %+v", b)
	}
	if !strings.Contains(b.Reason, "discarded at ingress") {
		t.Fatalf("reason = %q", b.Reason)
	}
	if res.First == nil || res.First.Seq != dropSeq {
		t.Fatalf("first blocking = %+v", res.First)
	}
}

// TestReplayBlamesSenderSideDrop models the mesh/partition shape: the
// frame to member 2 was destroyed at the sender's boundary, so member 2
// has no ingress record at all — the blame must land on the sender's
// per-destination egress record.
func TestReplayBlamesSenderSideDrop(t *testing.T) {
	rings := cluster(3)
	f := data(t, 0, 1)
	rings[0].Record(capture.DirEgress, 0, mid.None, capture.Sent, 0, f)
	rings[0].Record(capture.DirEgress, 0, 2, capture.FaultDrop,
		fault.KindSet(0).With(fault.KindPartition), f)
	rings[1].Record(capture.DirIngress, 0, 0, capture.Delivered, 0, f)

	res, err := Run(snapshots(rings))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Groups[0]
	if len(g.Findings) != 1 {
		t.Fatalf("findings = %+v", g.Findings)
	}
	b := g.Findings[0].Blocking
	if b == nil || b.Node != 0 || b.Peer != 2 || b.Verdict != "fault-drop" || b.Dir != "out" {
		t.Fatalf("blocking frame = %+v", b)
	}
	if !strings.Contains(b.Reason, "destroyed in flight") || !strings.Contains(b.Fault, "partition") {
		t.Fatalf("blame = %+v", b)
	}
}

// TestReplayVanishedFrame covers the silent-loss shape: the broadcast was
// captured leaving the origin, no fault was recorded anywhere, and the
// victim simply never saw it — the blame names the broadcast and notes
// the arrival is untraced.
func TestReplayVanishedFrame(t *testing.T) {
	rings := cluster(3)
	f := data(t, 0, 1)
	rings[0].Record(capture.DirEgress, 0, mid.None, capture.Sent, 0, f)
	rings[1].Record(capture.DirIngress, 0, 0, capture.Delivered, 0, f)
	// member 2: nothing.

	res, err := Run(snapshots(rings))
	if err != nil {
		t.Fatal(err)
	}
	b := res.Groups[0].Findings[0].Blocking
	if b == nil || b.Node != 0 || b.Dir != "out" || !strings.Contains(b.Reason, "no capture ever saw it reach member 2") {
		t.Fatalf("blocking frame = %+v", b)
	}
}

// TestReplayCrashMarkStopsFeed pins that a crash mark fences the member's
// replay: records after the mark never feed, and the member is excluded
// from the survivor set (so its missing tail is not a violation).
func TestReplayCrashMarkStopsFeed(t *testing.T) {
	rings := cluster(3)
	f1, f2 := data(t, 0, 1), data(t, 0, 2)
	rings[0].Record(capture.DirEgress, 0, mid.None, capture.Sent, 0, f1)
	rings[0].Record(capture.DirEgress, 0, mid.None, capture.Sent, 0, f2)
	for _, i := range []int{1, 2} {
		rings[i].Record(capture.DirIngress, 0, 0, capture.Delivered, 0, f1)
	}
	rings[1].Record(capture.DirIngress, 0, 0, capture.Delivered, 0, f2)
	rings[2].Mark(capture.Crash, fault.KindSet(0).With(fault.KindCrash))
	rings[2].Record(capture.DirIngress, 0, 0, capture.Delivered, 0, f2) // post-mortem

	res, err := Run(snapshots(rings))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Fatalf("crashed member's missing tail reported as violation: %+v", res.Groups[0].Findings)
	}
	g := res.Groups[0]
	if len(g.Crashed) != 1 || g.Crashed[0] != 2 || len(g.Survivors) != 2 {
		t.Fatalf("crash accounting = %+v", g)
	}
}
