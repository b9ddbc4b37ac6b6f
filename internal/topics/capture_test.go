package topics

import (
	"bytes"
	"context"
	"testing"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/causal"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// TestMeshCapturePerMember pins per-member capture on the mesh: each
// member records only the frames crossing its own boundary, on its own
// ring — its egress, with the send-side verdict, and its ingress from the
// other member — never another member's traffic.
func TestMeshCapturePerMember(t *testing.T) {
	cfg := meshConfig(2, 1)
	cfg.Captures = []*capture.Ring{
		capture.New(capture.Options{Node: 0, N: 2, K: cfg.K, R: cfg.R}),
		capture.New(capture.Options{Node: 1, N: 2, K: cfg.K, R: cfg.R}),
	}
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	payloads := [][]byte{[]byte("from-member-0"), []byte("from-member-1")}
	for i, p := range payloads {
		if _, err := c.Node(mid.ProcID(i)).Send(ctx, 0, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitGroupConverged(t, []*MultiNode{c.Node(0), c.Node(1)}, 1, mid.SeqVector{1, 1}, 10*time.Second)
	c.Stop()

	for i, ring := range cfg.Captures {
		self, other := mid.ProcID(i), mid.ProcID(1-i)
		var egress, ingress int
		var sentOwn, gotOther bool
		for _, r := range ring.Snapshot().Records {
			switch r.Dir {
			case capture.DirEgress:
				egress++
				if r.Peer != mid.None && r.Peer != other {
					t.Errorf("ring %d: egress to %d", i, r.Peer)
				}
				if bytes.Contains(r.Frame, payloads[other]) {
					t.Errorf("ring %d recorded member %d's message as its own egress", i, other)
				}
				sentOwn = sentOwn || bytes.Contains(r.Frame, payloads[self])
			case capture.DirIngress:
				ingress++
				if r.Peer != other {
					t.Errorf("ring %d: ingress claiming source %d", i, r.Peer)
				}
				if bytes.Contains(r.Frame, payloads[self]) {
					t.Errorf("ring %d recorded its own message as ingress", i)
				}
				gotOther = gotOther || bytes.Contains(r.Frame, payloads[other])
			}
		}
		if egress == 0 || ingress == 0 || !sentOwn || !gotOther {
			t.Errorf("ring %d: %d egress, %d ingress records; own message sent %v, peer's received %v",
				i, egress, ingress, sentOwn, gotOther)
		}
	}
}

// discardLink swallows every frame: it isolates the egress fan-out from
// the receivers' ingress work.
type discardLink struct{}

func (discardLink) send(mid.ProcID, *sharedFrame) {}

// TestMeshBroadcastAllocBudget guards the send side of the fan-out: one
// Broadcast to four peers costs the shared-frame refcount and, while none
// cycle back through the pool, a fresh wire buffer — not a marshal or a
// buffer per peer, which would blow well past the budget. Each receiver's
// own decode is the ingress path's cost, not the fan-out's.
func TestMeshBroadcastAllocBudget(t *testing.T) {
	c, err := NewMultiCluster(meshConfig(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	n := c.Node(0)
	n.link = discardLink{}
	tp := groupTransport{n.sessions[0]}
	pdu := &wire.Data{Msg: causal.Message{ID: mid.MID{Proc: 0, Seq: 1}, Payload: make([]byte, 64)}}
	before := wire.MarshalCalls()
	got := testing.AllocsPerRun(100, func() { tp.Broadcast(pdu) })
	if marshals := wire.MarshalCalls() - before; marshals != 101 {
		t.Errorf("%d marshals for 101 broadcasts, want one each", marshals)
	}
	if got > 4 {
		t.Errorf("mesh Broadcast allocates %.1f/op, budget 4", got)
	}
}
