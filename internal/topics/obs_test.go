package topics

import (
	"context"
	"strconv"
	"testing"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/wire"
)

// TestMultiGroupObservability drives a mesh cluster with metrics and
// tracing enabled and checks the per-group observability surface: each
// group's tracer is group-tagged, its report carries the group id, the
// per-group submit→stable histogram fills, and Status exposes one
// GroupStatus per hosted group.
func TestMultiGroupObservability(t *testing.T) {
	const n, groups = 3, 3
	reg := obs.New()
	cfg := meshConfig(n, groups)
	cfg.Metrics = reg
	cfg.Lifecycle = &lifecycle.Options{SlowThreshold: 10 * time.Second}
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for g := 0; g < groups; g++ {
		for i := 0; i < 3; i++ {
			if _, err := c.Node(0).Send(ctx, uint32(g), []byte("payload"), nil); err != nil {
				t.Fatalf("group %d send %d: %v", g, i, err)
			}
		}
	}

	for g := 0; g < groups; g++ {
		tr := c.Node(0).Lifecycle(uint32(g))
		if tr == nil {
			t.Fatalf("group %d tracer nil with tracing enabled", g)
		}
		if tr.Group() != g {
			t.Fatalf("group %d tracer tagged %d", g, tr.Group())
		}
		r := tr.Report(5, 5)
		if r.Group != g || r.Node != 0 {
			t.Fatalf("group %d report tagged node=%d group=%d", g, r.Node, r.Group)
		}
		if r.Counts.Started == 0 {
			t.Fatalf("group %d report tracked no spans", g)
		}
	}
	if trs := c.Node(1).Lifecycles(); len(trs) != groups {
		t.Fatalf("Lifecycles() = %d tracers, want %d", len(trs), groups)
	}

	// Uniform stability settles the per-group submit→stable histogram on
	// the origin; poll, then check every group's series landed.
	deadline := time.Now().Add(15 * time.Second)
	for g := 0; g < groups; g++ {
		name := obs.Labeled("topics_submit_to_stable_seconds", "node", "0", "group", strconv.Itoa(g))
		for reg.Histogram(name, nil).Count() < 3 {
			if time.Now().After(deadline) {
				t.Fatalf("group %d submit_to_stable count = %d, want 3", g, reg.Histogram(name, nil).Count())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// The group-labeled lifecycle histograms fill too.
	if h := reg.Histogram(obs.Labeled("lifecycle_emit_to_process_seconds", "node", "0", "group", "1"), nil); h.Count() == 0 {
		t.Fatal("group-labeled lifecycle histogram empty")
	}

	st, err := c.Node(0).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Groups) != groups {
		t.Fatalf("status groups = %d, want %d", len(st.Groups), groups)
	}
	for g, gs := range st.Groups {
		if int(gs.Group) != g || !gs.Running || gs.ProcessedSum < 3 {
			t.Fatalf("group %d status = %+v", g, gs)
		}
	}
}

// TestDropFramePartitionsOneGroup pins the DropFrame seam: with every
// frame of group 1 dropped, group 0 still replicates across the cluster
// while group 1's messages never reach a remote member (a sender's own
// message can still self-deliver, so the remote frontier is the witness).
func TestDropFramePartitionsOneGroup(t *testing.T) {
	cfg := meshConfig(3, 2)
	cfg.DropFrame = func(group uint32, src, dst mid.ProcID) bool { return group == 1 }
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Node(0).Send(ctx, 0, []byte("ok"), nil); err != nil {
		t.Fatalf("healthy group blocked: %v", err)
	}
	c.Node(0).Send(ctx, 1, []byte("lost"), nil) // may self-deliver; must not replicate

	// Group 0's message reaches every member; group 1's reaches none.
	want := mid.SeqVector{1, 0, 0}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got mid.SeqVector
		if err := c.Node(1).Snapshot(ctx, 0, func(p *core.Process) { got = p.Processed().Clone() }); err != nil {
			t.Fatal(err)
		}
		if got.Equal(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("group 0 never replicated: %v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var remote mid.SeqVector
	if err := c.Node(1).Snapshot(ctx, 1, func(p *core.Process) { remote = p.Processed().Clone() }); err != nil {
		t.Fatal(err)
	}
	if remote.Sum() != 0 {
		t.Fatalf("partitioned group leaked frames: remote processed %v", remote)
	}
}

// TestTopicsDisabledObsAllocFree pins the disabled-observability contract
// on the multi-group deliver path: with Metrics and Lifecycle both nil, a
// session's park-then-cascade delivery costs exactly the pre-existing
// core budget (see rt's TestLifecycleDisabledAllocFree) — the per-group
// accounting added for multi-group observability must be nil-gated out.
func TestTopicsDisabledObsAllocFree(t *testing.T) {
	cfg := Config{
		Config: core.Config{N: 3, K: 3, R: 8, SelfExclusion: true},
		Groups: 2,
	}
	cfg.fill(true)
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	m, err := newMultiNode(cfg, nil) // no link: the driver below never emits
	if err != nil {
		t.Fatal(err)
	}
	// The loop is never started: the driver below is the only goroutine
	// touching the process, satisfying the single-owner contract.
	s := m.sessions[1]
	if s.gobs != nil || s.tracer != nil || s.stableWait != nil {
		t.Fatal("disabled observability left per-group state allocated")
	}

	const runs = 400
	payload := make([]byte, 16)
	msgs := make([]*wire.Data, 2*(runs+2))
	for i := range msgs {
		msgs[i] = &wire.Data{Msg: causal.Message{
			ID:      mid.MID{Proc: 1, Seq: mid.Seq(i + 1)},
			Payload: payload,
		}}
	}
	s.proc.Recv(1, msgs[1]) // warm scratch containers outside the measurement
	s.proc.Recv(1, msgs[0])
	i := 2
	got := testing.AllocsPerRun(runs, func() {
		s.proc.Recv(1, msgs[i+1]) // parks on the missing implicit dep (1, i)
		s.proc.Recv(1, msgs[i])   // delivers and cascades both
		i += 2
	})
	if want := mid.Seq(2 * (runs + 2)); s.proc.Processed()[1] != want {
		t.Fatalf("processed up to %d, want %d (driver bug)", s.proc.Processed()[1], want)
	}
	// Same pre-existing budget as rt's bare-process guard: the topics
	// layer must add nothing when observability is off.
	if got > 13 {
		t.Errorf("disabled-observability deliver path allocates %.2f/op, budget 13", got)
	}
}
