package topics

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// waiters counts one group's registered confirm waiters.
func waiters(m *MultiNode, group uint32) int {
	s := m.sessions[group]
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// TestSendAbandonedDoesNotLeakWaiter is the regression test for the
// waiter-map leak: a Send abandoned on context timeout while its message
// is still unprocessed must remove its confirm entry. Long rounds make the
// outbox flow control (one user message broadcast per subrun) hold the
// later submissions back past the context deadline deterministically.
func TestSendAbandonedDoesNotLeakWaiter(t *testing.T) {
	c, err := NewMultiCluster(Config{
		Config:        core.Config{N: 3, K: 3, R: 8},
		RoundDuration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	n := c.Node(1)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	const sends = 3
	var (
		wg   sync.WaitGroup
		ids  [sends]mid.MID
		errs [sends]error
	)
	for j := 0; j < sends; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[j], errs[j] = n.Send(ctx, 0, []byte("stuck"), nil)
		}()
	}
	wg.Wait()
	abandoned := 0
	for j := 0; j < sends; j++ {
		if errs[j] != nil && ids[j] != (mid.MID{}) {
			abandoned++
		}
	}
	// The first submission may ride the initial subrun's broadcast, but
	// the rest cannot leave the outbox before 400ms.
	if abandoned < sends-1 {
		t.Fatalf("only %d sends were abandoned mid-flight (ids %v, errs %v): the leak path was not exercised",
			abandoned, ids, errs)
	}
	if leaked := waiters(n, 0); leaked != 0 {
		t.Errorf("%d waiter entries leaked after abandoned sends", leaked)
	}
}

// TestUDPSendAbandonedDoesNotLeakWaiterOrGoroutines is the same regression
// over a UDP member, plus a shutdown goroutine-leak check: a member whose
// peer never answers abandons its send on timeout, must leave no waiter
// entry behind, and Stop must wind down every goroutine.
func TestUDPSendAbandonedDoesNotLeakWaiterOrGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	before := runtime.NumGoroutine()
	node, err := NewMultiNode(Config{
		Config:        core.Config{N: 2, K: 3, R: 8},
		Self:          1, // peer 0 is never started
		Peers:         freePorts(t, 2),
		RoundDuration: 200 * time.Millisecond, // first tick after the deadline
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	t.Cleanup(node.Stop)

	// No round ticks before the deadline, so no submission can leave the
	// outbox: the send is abandoned with its confirm still pending.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	id, err := node.Send(ctx, 0, []byte("stuck"), nil)
	if err == nil {
		t.Fatal("send confirmed before the first round tick")
	}
	if id == (mid.MID{}) {
		t.Fatalf("send failed before registering its waiter (err %v): the leak path was not exercised", err)
	}
	if leaked := waiters(node, 0); leaked != 0 {
		t.Errorf("%d waiter entries leaked after abandoned send", leaked)
	}

	node.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Stop: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
