package benchsuite

import (
	"context"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/topics"
)

// SamplerOverhead is LiveConfirmLatency with the full observability stack
// attached: a metrics registry on the cluster and a flight recorder
// sampling every instrument at 1ms — an order of magnitude faster than
// urcgc-node's default, so the recorded number is an upper bound on what
// /timeseries costs a live cluster. Comparing its ns/op and allocs/op
// against LiveConfirmLatency bounds the price of health monitoring when
// switched on; the sampler-disabled path is separately proven
// 0-extra-allocs by TestSamplerDisabledDeliverAllocFree in rt and
// TestFlightSampleAllocFree in obs.
func SamplerOverhead(b *testing.B) {
	reg := obs.New()
	c, err := topics.NewMultiCluster(topics.Config{
		Config:        core.Config{N: 5, K: 3, R: 8, SelfExclusion: true},
		RoundDuration: 200 * time.Microsecond,
		Metrics:       reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	flight := obs.NewFlight(reg, obs.FlightOptions{Interval: time.Millisecond, Cap: 2048})
	flight.Start()
	defer flight.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Node(mid.ProcID(i%5)).Send(ctx, 0, payload, nil); err != nil {
			b.Fatal(err)
		}
	}
}
