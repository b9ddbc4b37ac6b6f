package topics

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

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

func meshConfig(n, groups int) Config {
	return Config{
		Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
		Groups:        groups,
		RoundDuration: 500 * time.Microsecond,
	}
}

// waitGroupConverged polls until every member's processed vector in every
// group equals want.
func waitGroupConverged(t *testing.T, nodes []*MultiNode, groups int, want mid.SeqVector, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	deadline := time.Now().Add(timeout)
	for {
		ok := true
	check:
		for _, n := range nodes {
			for g := 0; g < groups; g++ {
				var got mid.SeqVector
				sctx, scancel := context.WithTimeout(ctx, 2*time.Second)
				err := n.Snapshot(sctx, uint32(g), func(p *core.Process) { got = p.Processed().Clone() })
				scancel()
				if err != nil || !got.Equal(want) {
					ok = false
					break check
				}
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("multi-group cluster never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMeshMultiGroupConverges drives several groups over the in-process
// mesh concurrently: every group must reach the same processed vector on
// every member, and groups must not bleed into each other.
func TestMeshMultiGroupConverges(t *testing.T) {
	const n, groups, perGroup = 3, 4, 6
	cfg := meshConfig(n, groups)
	cfg.BatchWindow = 200 * time.Microsecond
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, groups*perGroup)
	for g := 0; g < groups; g++ {
		for k := 0; k < perGroup; k++ {
			wg.Add(1)
			g, k := g, k
			go func() {
				defer wg.Done()
				payload := []byte(fmt.Sprintf("g%d-%d", g, k))
				if _, err := c.Node(0).Send(ctx, uint32(g), payload, nil); err != nil {
					errs <- fmt.Errorf("group %d send %d: %w", g, k, err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	nodes := make([]*MultiNode, n)
	for i := range nodes {
		nodes[i] = c.Node(mid.ProcID(i))
	}
	waitGroupConverged(t, nodes, groups, mid.SeqVector{perGroup, 0, 0}, 20*time.Second)

	for i, n := range nodes {
		counts := n.GroupCounts()
		if len(counts) != groups {
			t.Fatalf("node %d: %d group counts, want %d", i, len(counts), groups)
		}
		for g, got := range counts {
			if got != perGroup {
				t.Errorf("node %d group %d: processed %d, want %d", i, g, got, perGroup)
			}
		}
	}
}

// TestMeshCausalOrderPerGroup checks causal submissions stay ordered
// within their group while other groups churn.
func TestMeshCausalOrderPerGroup(t *testing.T) {
	const n, groups = 3, 3
	cfg := meshConfig(n, groups)
	cfg.BatchWindow = 200 * time.Microsecond
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	inds, err := c.Node(1).Indications(1)
	if err != nil {
		t.Fatal(err)
	}
	const chain = 5
	for k := 0; k < chain; k++ {
		if _, err := c.Node(0).SendCausal(ctx, 1, []byte(fmt.Sprintf("c%d", k))); err != nil {
			t.Fatal(err)
		}
		// Background noise on the other groups.
		if _, err := c.Node(2).Send(ctx, 0, []byte("noise"), nil); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	deadline := time.After(20 * time.Second)
	for seen < chain {
		select {
		case ind := <-inds:
			if ind.Group != 1 {
				t.Fatalf("group-1 indication stream delivered group %d", ind.Group)
			}
			if ind.Msg.ID.Proc != 0 {
				continue // another member's message
			}
			want := fmt.Sprintf("c%d", seen)
			if string(ind.Msg.Payload) != want {
				t.Fatalf("causal chain out of order: got %q, want %q", ind.Msg.Payload, want)
			}
			seen++
		case <-deadline:
			t.Fatalf("saw %d of %d causal messages", seen, chain)
		}
	}
}

// TestUDPMultiGroupConverges runs the full UDP runtime: G groups sharing
// one socket per member, demuxed by the group envelope, shipped through
// the shared burst sender.
func TestUDPMultiGroupConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	const n, groups, perGroup = 3, 3, 4
	reg := obs.New()
	peers := freePorts(t, n)
	nodes := make([]*MultiNode, n)
	for i := 0; i < n; i++ {
		node, err := NewMultiNode(Config{
			Config:        core.Config{N: n, K: 5, R: 16, SelfExclusion: true},
			Groups:        groups,
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
	var wg sync.WaitGroup
	errs := make(chan error, n*groups*perGroup)
	for i := 0; i < n; i++ {
		for g := 0; g < groups; g++ {
			for k := 0; k < perGroup; k++ {
				wg.Add(1)
				i, g, k := i, g, k
				go func() {
					defer wg.Done()
					payload := []byte(fmt.Sprintf("u%d-%d-%d", i, g, k))
					if _, err := nodes[i].Send(ctx, uint32(g), payload, nil); err != nil {
						errs <- fmt.Errorf("node %d group %d send %d: %w", i, g, k, err)
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := mid.SeqVector{perGroup, perGroup, perGroup}
	waitGroupConverged(t, nodes, groups, want, 20*time.Second)

	if reg.Counter("topics_send_oversize_total").Value() != 0 {
		t.Error("multi-group traffic tripped the oversize guard")
	}
}

// TestUDPInteropGroupZero pins the wire-compat acceptance: single-group
// (G=1) members and a member hosting four groups interoperate in group 0 —
// group-0 frames are byte-identical whatever the host's group count.
func TestUDPInteropGroupZero(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	const n = 3
	peers := freePorts(t, n)
	base := core.Config{N: n, K: 5, R: 16, SelfExclusion: true}

	single := make([]*MultiNode, 2)
	for i := 0; i < 2; i++ {
		node, err := NewMultiNode(Config{
			Config:        base,
			Self:          mid.ProcID(i),
			Peers:         peers,
			RoundDuration: 3 * time.Millisecond,
			BatchWindow:   2 * time.Millisecond,
			Logf:          func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		single[i] = node
	}
	multi, err := NewMultiNode(Config{
		Config:        base,
		Groups:        4,
		Self:          2,
		Peers:         peers,
		RoundDuration: 3 * time.Millisecond,
		BatchWindow:   2 * time.Millisecond,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range single {
		node.Start()
		t.Cleanup(node.Stop)
	}
	multi.Start()
	t.Cleanup(multi.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const per = 4
	for k := 0; k < per; k++ {
		if _, err := single[0].Send(ctx, 0, []byte(fmt.Sprintf("L%d", k)), nil); err != nil {
			t.Fatalf("single send %d: %v", k, err)
		}
		if _, err := multi.Send(ctx, 0, []byte(fmt.Sprintf("M%d", k)), nil); err != nil {
			t.Fatalf("multi send %d: %v", k, err)
		}
	}
	want := mid.SeqVector{per, 0, per}
	deadline := time.Now().Add(20 * time.Second)
	for {
		var singleGot, multiGot mid.SeqVector
		sctx, scancel := context.WithTimeout(ctx, 2*time.Second)
		err1 := single[1].Snapshot(sctx, 0, func(p *core.Process) { singleGot = p.Processed().Clone() })
		err2 := multi.Snapshot(sctx, 0, func(p *core.Process) { multiGot = p.Processed().Clone() })
		scancel()
		if err1 == nil && err2 == nil && singleGot.Equal(want) && multiGot.Equal(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mixed single/multi group never converged: single=%v multi=%v want=%v",
				singleGot, multiGot, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLegacyNodeDropsGroupTaggedFrames pins graceful degradation in the
// other direction: a single-group (G=1) member receiving a frame for a
// group it does not host counts it as a drop instead of mis-decoding it.
func TestLegacyNodeDropsGroupTaggedFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	reg := obs.New()
	peers := freePorts(t, 2)
	node, err := NewMultiNode(Config{
		Config:        core.Config{N: 2, K: 100, R: 256, SelfExclusion: true},
		Self:          0,
		Peers:         peers,
		RoundDuration: 3 * time.Millisecond,
		Metrics:       reg,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	t.Cleanup(node.Stop)

	multi, err := NewMultiNode(Config{
		Config:        core.Config{N: 2, K: 100, R: 256, SelfExclusion: true},
		Groups:        2,
		Self:          1,
		Peers:         peers,
		RoundDuration: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	multi.Start()
	t.Cleanup(multi.Stop)

	// Group-1 traffic from the multi-group node reaches the single-group node's
	// socket as group-tagged frames it must refuse.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The group-1 peer never answers (the single-group node drops those
		// frames), so the confirm blocks until the context ends — the
		// round ticks alone already broadcast group-tagged REQUESTs.
		sctx, scancel := context.WithTimeout(ctx, 3*time.Second)
		defer scancel()
		multi.Send(sctx, 1, []byte("tagged"), nil)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for reg.Counter("topics_drop_group_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("single-group node never counted a dropped group-tagged frame")
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-done
}

// TestConcurrentDemuxShardDispatchStress is the race-detector stress for
// the demux path: many groups on each member's one protocol loop, every
// member sending on every group concurrently while status snapshots and
// group counts are read from other goroutines.
func TestConcurrentDemuxShardDispatchStress(t *testing.T) {
	const n, groups, perGroup = 3, 8, 4
	cfg := meshConfig(n, groups)
	cfg.BatchWindow = 200 * time.Microsecond
	cfg.Metrics = obs.New()
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, n*groups*perGroup)
	for i := 0; i < n; i++ {
		for g := 0; g < groups; g++ {
			for k := 0; k < perGroup; k++ {
				wg.Add(1)
				i, g, k := i, g, k
				go func() {
					defer wg.Done()
					payload := []byte(fmt.Sprintf("s%d-%d-%d", i, g, k))
					if _, err := c.Node(mid.ProcID(i)).Send(ctx, uint32(g), payload, nil); err != nil {
						errs <- fmt.Errorf("node %d group %d send %d: %w", i, g, k, err)
					}
				}()
			}
		}
	}
	// Concurrent observers: statuses and counts while traffic flows.
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		for j := 0; j < 50; j++ {
			for i := 0; i < n; i++ {
				node := c.Node(mid.ProcID(i))
				node.GroupCounts()
				sctx, scancel := context.WithTimeout(ctx, time.Second)
				node.GroupStatus(sctx, uint32(j%groups))
				scancel()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	<-obsDone
	nodes := make([]*MultiNode, n)
	for i := range nodes {
		nodes[i] = c.Node(mid.ProcID(i))
	}
	waitGroupConverged(t, nodes, groups, mid.SeqVector{perGroup, perGroup, perGroup}, 30*time.Second)
}

// TestConfigValidation pins the construction-time guardrails.
func TestConfigValidation(t *testing.T) {
	base := meshConfig(3, 2)
	if _, err := NewMultiCluster(base); err != nil {
		t.Fatalf("valid config refused: %v", err)
	}
	bad := base
	bad.Groups = -1
	if _, err := NewMultiCluster(bad); err == nil {
		t.Error("negative group count accepted")
	}
	if _, err := NewMultiNode(Config{
		Config: core.Config{N: 2, K: 3, R: 8},
		Self:   0,
		Peers:  []string{"127.0.0.1:0"}, // one peer for a group of two
	}); err == nil {
		t.Error("mismatched peer list accepted")
	}
}

// waitRoundZero polls until all entities protocol entities have ticked
// round 0, so a Send issued afterwards waits for the next tick.
func waitRoundZero(t *testing.T, reg *obs.Registry, entities int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ticked int64
		for name, v := range reg.Snapshot() {
			if strings.HasPrefix(name, "rt_rounds_total") {
				ticked += v
			}
		}
		if ticked >= int64(entities) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("round 0 never ticked")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMultiNodeStopFailsPendingSends mirrors the coalescer shutdown edge
// at the multi-group API: Sends stranded in the coalescer when Stop runs
// must error out, in every group, never hang.
func TestMultiNodeStopFailsPendingSends(t *testing.T) {
	const groups = 3
	cfg := meshConfig(2, groups)
	cfg.RoundDuration = time.Hour // only Stop can resolve these Sends
	cfg.BatchWindow = time.Millisecond
	cfg.Metrics = obs.New()
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	waitRoundZero(t, cfg.Metrics, 2*groups)

	done := make(chan error, groups)
	for g := 0; g < groups; g++ {
		g := g
		go func() {
			_, err := c.Node(0).Send(context.Background(), uint32(g), []byte("stranded"), nil)
			done <- err
		}()
	}
	// Wait until each submission is pending in its coalescer, so Stop
	// races against queued waiters rather than unstarted goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for g := 0; g < groups; g++ {
		for c.Node(0).sessions[g].coal.Pending() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("submission never entered the coalescer")
			}
			time.Sleep(time.Millisecond)
		}
	}
	c.Stop()
	for g := 0; g < groups; g++ {
		select {
		case err := <-done:
			if err == nil {
				t.Error("Send stranded in a stopped coalescer returned nil error")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Send leaked: still blocked after Stop")
		}
	}
}

// TestKillAnswersPendingSends pins the fail-stop edge of the coalescer: a
// killed member drains nothing (over UDP its clock stops ticking), so Kill
// itself must answer the Sends pending for the next tick with ErrKilled,
// and later Sends must be refused the same way instead of hanging.
func TestKillAnswersPendingSends(t *testing.T) {
	cfg := meshConfig(2, 1)
	cfg.RoundDuration = time.Hour // round 1 never ticks
	cfg.BatchWindow = time.Millisecond
	cfg.Metrics = obs.New()
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	waitRoundZero(t, cfg.Metrics, 2)

	node := c.Node(0)
	done := make(chan error, 1)
	go func() {
		_, err := node.Send(context.Background(), 0, []byte("pending"), nil)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for node.sessions[0].coal.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("submission never entered the coalescer")
		}
		time.Sleep(time.Millisecond)
	}
	node.Kill()
	select {
	case err := <-done:
		if !errors.Is(err, ErrKilled) {
			t.Errorf("pending Send after Kill: err = %v, want ErrKilled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pending Send still blocked after Kill")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := node.Send(ctx, 0, []byte("late"), nil); !errors.Is(err, ErrKilled) {
		t.Errorf("Send to a killed member: err = %v, want ErrKilled", err)
	}
}
