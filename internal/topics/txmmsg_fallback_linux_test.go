//go:build linux && (amd64 || arm64)

package topics

import (
	"context"
	"fmt"
	"sync"
	"syscall"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// TestMmsgRuntimeFallback pins the runtime degradation contract: a kernel
// that accepts socket construction but refuses sendmmsg with ENOSYS must
// push the member onto classic single-datagram writes, with every frame
// still arriving — the fallback is silent degradation, not loss. (The test
// mutates the package-level syscall seam, so it must not run in parallel
// with other UDP tests; none of this package's tests call t.Parallel.)
func TestMmsgRuntimeFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	prev := sendmmsgRaw
	sendmmsgRaw = func(uintptr, *mmsghdr, int) (uintptr, syscall.Errno) { return 0, syscall.ENOSYS }
	t.Cleanup(func() { sendmmsgRaw = prev })

	const n = 3
	reg := obs.New()
	peers := freePorts(t, n)
	nodes := make([]*MultiNode, n)
	for i := 0; i < n; i++ {
		node, err := NewMultiNode(Config{
			Config:        core.Config{N: n, K: 5, R: 16, SelfExclusion: true},
			Self:          mid.ProcID(i),
			Peers:         peers,
			RoundDuration: 3 * time.Millisecond,
			BatchWindow:   2 * time.Millisecond,
			Metrics:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The burst machinery must have been constructed — the whole point
		// is that the refusal arrives only once the syscall runs.
		if node.udp.tx.burst == nil {
			t.Fatal("burst sender was not built on a linux target")
		}
		nodes[i] = node
	}
	for _, node := range nodes {
		node.Start()
		t.Cleanup(node.Stop)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const perNode = 8
	var wg sync.WaitGroup
	errs := make(chan error, n*perNode)
	for i := 0; i < n; i++ {
		for k := 0; k < perNode; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := nodes[i].Send(ctx, 0, []byte(fmt.Sprintf("fb%d-%d", i, k)), nil); err != nil {
					errs <- fmt.Errorf("node %d send %d: %w", i, k, err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// No frame may be lost to the refusal: the group converges on the full
	// vector exactly as it would with the burst path live.
	waitGroupConverged(t, nodes, 1, mid.SeqVector{perNode, perNode, perNode}, 20*time.Second)

	// Every sender latched the refusal; it is read after Stop, once the
	// sender goroutine that owns the flag has exited.
	for _, node := range nodes {
		node.Stop()
	}
	for i, node := range nodes {
		if !node.udp.tx.burst.disabled {
			t.Errorf("node %d: burst sender still enabled after ENOSYS", i)
		}
	}
	if reg.Counter("topics_send_datagrams_total").Value() == 0 {
		t.Error("no datagrams accounted on the classic fallback path")
	}
}
