package rt_test

import (
	"context"
	"testing"
	"time"
	"urcgc/internal/topics"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// TestConfigDefaultsFilled pins the zero-value contract: a cluster built
// from the protocol parameters alone runs (round, inbox and indication
// defaults are filled), and explicit tuning survives.
func TestConfigDefaultsFilled(t *testing.T) {
	c, err := topics.NewMultiCluster(topics.Config{Config: core.Config{N: 2, K: 2, R: 5, SelfExclusion: true}})
	if err != nil {
		t.Fatal(err)
	}
	if got := cap(indications(c.Node(0))); got == 0 {
		t.Error("indication queue default not filled")
	}
	c.Start()
	t.Cleanup(c.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Node(0).Send(ctx, 0, []byte("x"), nil); err != nil {
		t.Fatalf("defaults do not run: %v", err)
	}
	select {
	case <-indications(c.Node(1)):
	case <-ctx.Done():
		t.Fatal("no indication delivered under default tuning")
	}

	cfg := liveConfig(2)
	cfg.IndicationDepth = 9
	c2, err := topics.NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cap(indications(c2.Node(0))); got != 9 {
		t.Errorf("explicit indication depth overwritten: %d", got)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := topics.NewMultiCluster(topics.Config{Config: core.Config{N: 0}}); err == nil {
		t.Error("invalid core config must be rejected")
	}
}

func TestKilledNodeRejectsSends(t *testing.T) {
	c, err := topics.NewMultiCluster(liveConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	c.Node(1).Kill()
	if !c.Node(1).Killed() {
		t.Fatal("Killed not reported")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Node(1).Send(ctx, 0, []byte("x"), nil); err == nil {
		t.Error("send on a killed node must fail")
	}
	// SendCausal too.
	if _, err := c.Node(1).SendCausal(ctx, 0, []byte("x")); err == nil {
		t.Error("SendCausal on a killed node must fail")
	}
}

func TestLeftReportsNothingInitially(t *testing.T) {
	c, err := topics.NewMultiCluster(liveConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, left := c.Node(0).Left(0); left {
		t.Error("fresh node should not have left")
	}
}

func TestSnapshotAfterStopFails(t *testing.T) {
	c, err := topics.NewMultiCluster(liveConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err = c.Node(0).Snapshot(ctx, 0, func(*core.Process) {})
	if err == nil {
		t.Error("snapshot after Stop should fail")
	}
}

func TestContextCancelUnblocksSend(t *testing.T) {
	c, err := topics.NewMultiCluster(liveConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// Cluster never started: nothing ticks, so the Confirm never comes.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Node(0).Send(ctx, 0, []byte("x"), nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("send should fail on context expiry")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send never unblocked")
	}
	c.Start()
	c.Stop()
}

func TestIndicationOrderPerSequence(t *testing.T) {
	c, err := topics.NewMultiCluster(liveConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const k = 5
	for i := 0; i < k; i++ {
		if _, err := c.Node(0).Send(ctx, 0, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Node 1 must observe node 0's sequence contiguously.
	var seen []mid.Seq
	for len(seen) < k {
		select {
		case ind := <-indications(c.Node(1)):
			if ind.Msg.ID.Proc == 0 {
				seen = append(seen, ind.Msg.ID.Seq)
			}
		case <-ctx.Done():
			t.Fatalf("starved after %v", seen)
		}
	}
	for i, s := range seen {
		if s != mid.Seq(i+1) {
			t.Fatalf("sequence broken: %v", seen)
		}
	}
}
