package rt_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"
	"urcgc/internal/topics"

	"urcgc/internal/core"
	"urcgc/internal/mid"
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

func TestUDPGroupConverges(t *testing.T) {
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
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for _, node := range nodes {
		node.Start()
		t.Cleanup(node.Stop)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const perNode = 4
	for k := 0; k < perNode; k++ {
		for i := 0; i < n; i++ {
			if _, err := nodes[i].Send(ctx, 0, []byte(fmt.Sprintf("u%d-%d", i, k)), nil); err != nil {
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
			break
		}
		if time.Now().After(deadline) {
			for i := 0; i < n; i++ {
				var got mid.SeqVector
				sctx, scancel := context.WithTimeout(ctx, 2*time.Second)
				_ = nodes[i].Snapshot(sctx, 0, func(p *core.Process) { got = p.Processed().Clone() })
				scancel()
				t.Logf("node %d: %v", i, got)
			}
			t.Fatal("UDP group never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestUDPConfigValidation(t *testing.T) {
	_, err := topics.NewMultiNode(topics.Config{
		Config: core.Config{N: 3, K: 2, R: 5, SelfExclusion: true},
		Self:   0,
		Peers:  []string{"127.0.0.1:0"},
	})
	if err == nil {
		t.Error("peer count mismatch must fail")
	}
	_, err = topics.NewMultiNode(topics.Config{
		Config: core.Config{N: 2, K: 2, R: 5, SelfExclusion: true},
		Self:   5,
		Peers:  []string{"127.0.0.1:0", "127.0.0.1:0"},
	})
	if err == nil {
		t.Error("self out of range must fail")
	}
	_, err = topics.NewMultiNode(topics.Config{
		Config: core.Config{N: 1, K: 1, R: 3, SelfExclusion: true},
		Self:   0,
		Peers:  []string{"not-an-address"},
	})
	if err == nil {
		t.Error("bad address must fail")
	}
}
