package benchsuite

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/topics"
)

// ---- Group scaling: aggregate msgs/s x groups ----

// benchGroupScaling saturates a multi-group mesh cluster and reports the
// aggregate confirmed rate across every group. Each group's throughput is
// round-pacing-bound (confirm latency is one or two subruns), so hosting G
// independent groups on each member's one protocol loop multiplies the
// aggregate even on one core — Little's law, not parallelism. Workers
// spread across groups and members; the iteration budget is shared, so
// msgs/s is the true aggregate.
func benchGroupScaling(b *testing.B, groups int) {
	const n = 3
	c, err := topics.NewMultiCluster(topics.Config{
		Config:        core.Config{N: n, K: 3, R: 8, BatchMax: 64, SelfExclusion: true},
		Groups:        groups,
		RoundDuration: 500 * time.Microsecond,
		BatchWindow:   200 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	payload := make([]byte, 64)
	// Enough in-flight senders per group to fill its subrun drains without
	// flooding the member's loop when G is large.
	const workersPerGroup = 8
	workers := workersPerGroup * groups
	var next atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		g := uint32(w % groups)
		node := c.Node(mid.ProcID(w % n))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				if _, err := node.Send(ctx, g, payload, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	b.ReportMetric(float64(groups), "groups")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// GroupScalingG1 is the single-group control every scaling point is
// measured against.
func GroupScalingG1(b *testing.B) { benchGroupScaling(b, 1) }

// GroupScalingG2 doubles the groups.
func GroupScalingG2(b *testing.B) { benchGroupScaling(b, 2) }

// GroupScalingG4 is the mid scaling point.
func GroupScalingG4(b *testing.B) { benchGroupScaling(b, 4) }

// GroupScalingG8 is the acceptance shape: aggregate msgs/s must be at
// least 3x the G1 control.
func GroupScalingG8(b *testing.B) { benchGroupScaling(b, 8) }
