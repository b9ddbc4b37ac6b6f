package rt_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"urcgc/internal/rt"
	"urcgc/internal/topics"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// sumMetric adds up a (possibly node-labeled) counter family from a
// registry snapshot.
func sumMetric(reg *obs.Registry, prefix string) int64 {
	var total int64
	for name, v := range reg.Snapshot() {
		if strings.HasPrefix(name, prefix) {
			total += v
		}
	}
	return total
}

// TestCoalescedSendsConverge fires a burst of concurrent Sends through the
// coalescing sender: every send must confirm, every node must process every
// message, and the burst must actually leave as multi-message DataBatch
// frames rather than 32 singleton broadcasts.
func TestCoalescedSendsConverge(t *testing.T) {
	reg := obs.New()
	cfg := liveConfig(3)
	cfg.RoundDuration = time.Millisecond
	// Any positive window turns coalescing on; the burst leaves in the
	// count-budget flush at DefaultBatchMax or at the next round tick.
	cfg.BatchWindow = 100 * time.Millisecond
	cfg.Metrics = reg
	c, err := topics.NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const burst = core.DefaultBatchMax
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for k := 0; k < burst; k++ {
		wg.Add(1)
		k := k
		go func() {
			defer wg.Done()
			if _, err := c.Node(0).Send(ctx, 0, []byte(fmt.Sprintf("burst-%d", k)), nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitConverged(t, c, mid.SeqVector{burst, 0, 0}, 15*time.Second)

	if frames := sumMetric(reg, "rt_batch_frames_total"); frames == 0 {
		t.Errorf("a %d-send burst through the coalescer broadcast no DataBatch frames", burst)
	}
	if msgs := sumMetric(reg, "rt_batch_msgs_total"); msgs == 0 {
		t.Errorf("rt_batch_msgs_total is zero after a coalesced burst")
	}
}

// TestCoalescedCausalSendPreservesDeps checks SendCausal through the
// coalescer: a message coalesced behind its dependency must still be
// delivered after it everywhere.
func TestCoalescedCausalSendPreservesDeps(t *testing.T) {
	cfg := liveConfig(3)
	cfg.RoundDuration = time.Millisecond
	cfg.BatchWindow = 5 * time.Millisecond
	c, err := topics.NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for k := 0; k < 4; k++ {
		if _, err := c.Node(0).SendCausal(ctx, 0, []byte(fmt.Sprintf("c-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, c, mid.SeqVector{4, 0, 0}, 15*time.Second)
}

// waitRoundZero polls until every one of entities protocol entities has
// ticked round 0, so a Send issued afterwards waits in the coalescer for
// the next tick.
func waitRoundZero(t *testing.T, reg *obs.Registry, entities int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sumMetric(reg, "rt_rounds_total") < int64(entities) {
		if time.Now().After(deadline) {
			t.Fatal("round 0 never ticked")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescerFlushesOnWindow pins the tick path: a lone submission —
// under every budget — issued between two round ticks must still enter
// the protocol at the next tick and confirm.
func TestCoalescerFlushesOnWindow(t *testing.T) {
	reg := obs.New()
	cfg := liveConfig(2)
	cfg.RoundDuration = 100 * time.Millisecond
	cfg.BatchWindow = 2 * time.Millisecond
	cfg.Metrics = reg
	c, err := topics.NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	waitRoundZero(t, reg, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Node(0).Send(ctx, 0, []byte("solo"), nil); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, mid.SeqVector{1, 0}, 10*time.Second)
}

// TestCoalescerStopFailsPendingWindow pins the shutdown edge: submissions
// pending for the next drain when Stop arrives must be answered — each
// waiter gets rt.ErrCoalescerStopped on its Res channel — never left
// blocked on a drain that will not happen.
func TestCoalescerStopFailsPendingWindow(t *testing.T) {
	enqueued := 0
	c := rt.NewCoalescer(16, 1<<20,
		func(fn func()) error { enqueued++; fn(); return nil },
		func(s *rt.Submission) { t.Error("submission reached submit after Stop") },
		nil)
	const pending = 5
	subs := make([]*rt.Submission, pending)
	for i := range subs {
		subs[i] = &rt.Submission{
			Payload: []byte("pending"),
			Res:     make(chan rt.SubResult, 1),
			Confirm: make(chan struct{}),
		}
		c.Add(subs[i])
	}
	if enqueued != 0 {
		t.Fatalf("nothing drained and budgets are slack, yet %d flushes ran early", enqueued)
	}
	c.Stop()
	for i, s := range subs {
		select {
		case r := <-s.Res:
			if r.Err != rt.ErrCoalescerStopped {
				t.Errorf("submission %d: err = %v, want rt.ErrCoalescerStopped", i, r.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("submission %d leaked: no Res after Stop", i)
		}
	}
	// Idempotent, and Adds after Stop fail immediately the same way.
	c.Stop()
	late := &rt.Submission{Res: make(chan rt.SubResult, 1)}
	c.Add(late)
	select {
	case r := <-late.Res:
		if r.Err != rt.ErrCoalescerStopped {
			t.Errorf("post-Stop Add: err = %v, want rt.ErrCoalescerStopped", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-Stop Add leaked: no Res")
	}
}

// TestCoalescerRefuseAndAdmit pins the fail-stop edge: Refuse answers
// every pending submission and every later Add with its error, Admit lets
// Adds pend again, and after Stop neither reopens the coalescer.
func TestCoalescerRefuseAndAdmit(t *testing.T) {
	c := rt.NewCoalescer(16, 1<<20,
		func(fn func()) error { fn(); return nil },
		func(s *rt.Submission) { t.Error("a refused submission reached submit") },
		nil)
	sub := func() *rt.Submission { return &rt.Submission{Res: make(chan rt.SubResult, 1)} }
	answered := func(s *rt.Submission, want error) {
		t.Helper()
		select {
		case r := <-s.Res:
			if r.Err != want {
				t.Errorf("err = %v, want %v", r.Err, want)
			}
		default:
			t.Errorf("submission not answered, want %v", want)
		}
	}
	errDown := fmt.Errorf("member down")
	pending := sub()
	c.Add(pending)
	c.Refuse(errDown)
	answered(pending, errDown)
	late := sub()
	c.Add(late)
	answered(late, errDown)

	c.Admit()
	again := sub()
	c.Add(again)
	if c.Pending() != 1 {
		t.Fatalf("after Admit an Add pends: %d pending, want 1", c.Pending())
	}
	c.Stop()
	answered(again, rt.ErrCoalescerStopped)
	c.Admit()
	c.Refuse(errDown)
	final := sub()
	c.Add(final)
	answered(final, rt.ErrCoalescerStopped)
}

// TestClusterStopUnblocksWindowedSends drives the same edge end to end: a
// Send pending in the coalescer when the cluster stops must return an
// error instead of hanging on its confirm channel.
func TestClusterStopUnblocksWindowedSends(t *testing.T) {
	reg := obs.New()
	cfg := liveConfig(2)
	cfg.RoundDuration = time.Hour // round 1 never ticks: only Stop can resolve the Send
	cfg.BatchWindow = time.Millisecond
	cfg.Metrics = reg
	c, err := topics.NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	waitRoundZero(t, reg, 2)

	done := make(chan error, 1)
	go func() {
		_, err := c.Node(0).Send(context.Background(), 0, []byte("stranded"), nil)
		done <- err
	}()
	// The hour-long round holds the submission: nothing may resolve it
	// before Stop.
	select {
	case err := <-done:
		t.Fatalf("Send returned before Stop (err %v): the wait for the next tick did not hold it", err)
	case <-time.After(50 * time.Millisecond):
	}
	c.Stop()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Send stranded in a stopped coalescer returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send leaked: still blocked after Stop")
	}
}

// TestUDPOversizeSendCounted pins the transport-boundary bugfix: a frame
// the 64 KiB datagram cannot carry is counted and dropped at the sender
// instead of being handed to WriteToUDP to fail (or worse, truncate).
// A maximum-payload Data message plus framing exceeds the datagram budget,
// so it is processed locally but never reaches the peer.
func TestUDPOversizeSendCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	reg := obs.New()
	peers := freePorts(t, 2)
	node, err := topics.NewMultiNode(topics.Config{
		// K is high so the lone live node does not exclude its silent peer
		// (or itself) before the assertion runs.
		Config:        core.Config{N: 2, K: 100, R: 256, SelfExclusion: true},
		Self:          0,
		Peers:         peers,
		RoundDuration: 2 * time.Millisecond,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	t.Cleanup(node.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	payload := make([]byte, 65535) // accepted by Submit; oversize once framed
	if _, err := node.Send(ctx, 0, payload, nil); err != nil {
		t.Fatalf("oversize-on-wire send must still confirm locally: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("topics_send_oversize_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("topics_send_oversize_total never incremented for a >64KiB frame")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUDPBatchedGroupConverges drives a real-socket group with coalescing
// enabled: DataBatch frames cross actual UDP datagrams (and the
// sendmmsg/recvmmsg burst paths where the platform has them).
func TestUDPBatchedGroupConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	const n = 3
	reg := obs.New()
	peers := freePorts(t, n)
	nodes := make([]*topics.MultiNode, n)
	for i := 0; i < n; i++ {
		node, err := topics.NewMultiNode(topics.Config{
			Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
			Self:          mid.ProcID(i),
			Peers:         peers,
			RoundDuration: 3 * time.Millisecond,
			BatchWindow:   2 * time.Millisecond,
			Metrics:       reg,
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
	const perNode = 8
	var wg sync.WaitGroup
	errs := make(chan error, n*perNode)
	for i := 0; i < n; i++ {
		for k := 0; k < perNode; k++ {
			wg.Add(1)
			i, k := i, k
			go func() {
				defer wg.Done()
				if _, err := nodes[i].Send(ctx, 0, []byte(fmt.Sprintf("ub%d-%d", i, k)), nil); err != nil {
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
			t.Fatal("batched UDP group never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if reg.Counter("topics_send_oversize_total").Value() != 0 {
		t.Error("batched traffic tripped the oversize guard; the batcher must split to the datagram budget")
	}
}
