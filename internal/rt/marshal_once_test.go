package rt_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/mid"
	"urcgc/internal/topics"
	"urcgc/internal/wire"
)

// wireAudit is what one short clean run put on the wire, read back from
// every member's capture ring: the runtime records each framed PDU once on
// egress (a broadcast once, whatever its fan-out) and each arrival once on
// ingress.
type wireAudit struct {
	marshals   uint64
	broadcasts int // egress records addressed to every peer
	unicasts   int // egress records addressed to one peer
	delivered  int // ingress records handed to a protocol entity
}

// auditRun drives n members, over the mesh or over loopback UDP, through a
// few sends each with a capture ring per member, and reports the wire
// marshals the whole run cost against the frames it captured.
func auditRun(t *testing.T, n int, udp bool) wireAudit {
	t.Helper()
	cfg := liveConfig(n)
	cfg.Captures = make([]*capture.Ring, n)
	for i := range cfg.Captures {
		cfg.Captures[i] = capture.New(capture.Options{Node: mid.ProcID(i), N: n, K: cfg.K, R: cfg.R, MaxFrames: 1 << 16})
	}
	before := wire.MarshalCalls()
	nodes := make([]*topics.MultiNode, n)
	var stop func()
	if udp {
		cfg.RoundDuration = 3 * time.Millisecond
		cfg.Peers = freePorts(t, n)
		for i := range nodes {
			cfg.Self = mid.ProcID(i)
			node, err := topics.NewMultiNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = node
			node.Start()
		}
		stop = func() {
			for _, node := range nodes {
				node.Stop()
			}
		}
	} else {
		c, err := topics.NewMultiCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range nodes {
			nodes[i] = c.Node(mid.ProcID(i))
		}
		c.Start()
		stop = c.Stop
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for k := 0; k < 3; k++ {
		for i, node := range nodes {
			if _, err := node.Send(ctx, 0, []byte(fmt.Sprintf("a%d-%d", i, k)), nil); err != nil {
				stop()
				t.Fatal(err)
			}
		}
	}
	stop() // every protocol loop has exited: no frame is half marshaled, half recorded
	a := wireAudit{marshals: wire.MarshalCalls() - before}
	for _, ring := range cfg.Captures {
		for _, r := range ring.Snapshot().Records {
			switch {
			case r.Dir == capture.DirEgress && r.Peer == mid.None:
				a.broadcasts++
			case r.Dir == capture.DirEgress:
				a.unicasts++
			case r.Verdict == capture.Delivered:
				a.delivered++
			}
		}
	}
	return a
}

// TestMeshBroadcastMarshalsOnce asserts the fan-out property on the
// in-process mesh: one Broadcast is exactly one wire marshal, however many
// peers receive the bytes, and decoding the fan-out marshals nothing.
func TestMeshBroadcastMarshalsOnce(t *testing.T) {
	const n = 5
	a := auditRun(t, n, false)
	if a.broadcasts == 0 {
		t.Fatal("no broadcast captured")
	}
	if frames := uint64(a.broadcasts + a.unicasts); a.marshals != frames {
		t.Fatalf("%d marshals for %d framed PDUs (%d broadcasts to %d peers each): want one per frame",
			a.marshals, frames, a.broadcasts, n-1)
	}
	// Every peer received every frame: the fan-out reused the one encoding.
	if want := a.broadcasts*(n-1) + a.unicasts; a.delivered != want {
		t.Errorf("%d frames delivered, want %d", a.delivered, want)
	}
}

// TestMeshSendMarshalsOnce pins the unicast path (requests, recovery) to
// one marshal per frame too.
func TestMeshSendMarshalsOnce(t *testing.T) {
	a := auditRun(t, 3, false)
	if a.unicasts == 0 {
		t.Fatal("no unicast captured")
	}
	if frames := uint64(a.broadcasts + a.unicasts); a.marshals != frames {
		t.Fatalf("%d marshals for %d framed PDUs, want one per frame", a.marshals, frames)
	}
}

// TestUDPBroadcastMarshalsOnce asserts the same property over the real
// socket transport: one framed buffer per PDU, shared by every
// destination's datagram.
func TestUDPBroadcastMarshalsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	a := auditRun(t, 3, true)
	if a.broadcasts == 0 || a.delivered == 0 {
		t.Fatalf("no traffic captured: %+v", a)
	}
	if frames := uint64(a.broadcasts + a.unicasts); a.marshals != frames {
		t.Fatalf("%d marshals for %d framed PDUs, want one per frame", a.marshals, frames)
	}
}
