package topics

import (
	"context"
	"fmt"
	"sync"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// MultiCluster is an in-process cluster of members, for tests, the chaos
// harness, the examples and the benchmarks: every frame still crosses the
// wire codec, the group envelope and the shared ingress byte for byte as
// over UDP, but delivery is a function call instead of a socket.
//
// Rounds run in lockstep across every member and group — each round's
// barrier waits for all G×N protocol entities — which removes
// scheduler-starvation artifacts: a member ticking late would look
// omission-faulty and eventually be excluded.
type MultiCluster struct {
	cfg   Config
	nodes []*MultiNode

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// NewMultiCluster builds (but does not start) N in-process members.
// Config.Self and Config.Peers are ignored; every member hosts every group.
func NewMultiCluster(cfg Config) (*MultiCluster, error) {
	cfg.fill(true)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &MultiCluster{cfg: cfg, stopCh: make(chan struct{})}
	c.nodes = make([]*MultiNode, cfg.N)
	for i := range c.nodes {
		ncfg := cfg
		ncfg.Self = mid.ProcID(i)
		n, err := newMultiNode(ncfg, meshLink{c})
		if err != nil {
			return nil, err
		}
		c.nodes[i] = n
	}
	return c, nil
}

// Start launches every member's protocol loop and the lockstep clock.
func (c *MultiCluster) Start() {
	for _, n := range c.nodes {
		n.Start()
	}
	c.wg.Add(1)
	go func() { defer c.wg.Done(); c.clock() }()
}

// Stop halts the clock, then every member. Pending coalescer submissions
// are failed, never leaked.
func (c *MultiCluster) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.wg.Wait()
	for _, n := range c.nodes {
		n.Stop()
	}
}

// Node returns member i.
func (c *MultiCluster) Node(i mid.ProcID) *MultiNode { return c.nodes[i] }

// N returns the group cardinality.
func (c *MultiCluster) N() int { return c.cfg.N }

// Restart revives member i as a joiner in every hosted group — the
// kill-and-restart experiment. Each fresh incarnation solicits a live
// sponsor, installs the state transfer and re-enters its group's view
// through a decision. The swaps happen on the member's protocol loop, so
// in-flight frames never see a half-built entity; the killed flag clears
// afterwards, so the caller must first make sure any Fault injector no
// longer reports the member crashed, or the next round re-kills it.
// Confirm waiters of the previous incarnation stay registered: a message
// the new incarnation recovers and processes confirms normally, one lost
// with the crash waits out its context.
func (c *MultiCluster) Restart(ctx context.Context, i mid.ProcID) error {
	if i < 0 || int(i) >= c.cfg.N {
		return fmt.Errorf("topics: restart of member %d outside group of %d", i, c.cfg.N)
	}
	n := c.nodes[i]
	for _, s := range n.sessions {
		p, err := s.newProc(true)
		if err != nil {
			return err
		}
		if err := n.Snapshot(ctx, s.group, func(*core.Process) { s.proc = p }); err != nil {
			return err
		}
		s.mu.Lock()
		s.leftWith = nil
		s.mu.Unlock()
	}
	n.killed.Store(false)
	return nil
}

// clock drives rounds in lockstep: every protocol entity of every member
// finishes round r before any starts r+1, and at least RoundDuration
// elapses per round. Each round first fail-stops members whose crash the
// fault hook has scheduled; a killed member's entities skip the tick. The
// barrier's wait is the one cluster-wide series, rt_round_barrier_seconds.
func (c *MultiCluster) clock() {
	var barrier *obs.Histogram
	if c.cfg.Metrics != nil {
		barrier = c.cfg.Metrics.Histogram("rt_round_barrier_seconds", obs.DurationBuckets)
	}
	dones := make([]chan struct{}, 0, c.cfg.N*c.cfg.Groups)
	for round := 0; ; round++ {
		start := time.Now()
		r := round
		dones = dones[:0]
		for _, n := range c.nodes {
			n.crashCheck()
			for _, s := range n.sessions {
				s := s
				s.obs.SampleInbox(len(n.inbox))
				done := make(chan struct{})
				select {
				case n.inbox <- func() { s.tick(r); close(done) }:
					dones = append(dones, done)
				case <-c.stopCh:
					return
				}
			}
		}
		for _, done := range dones {
			select {
			case <-done:
			case <-c.stopCh:
				return
			}
		}
		if barrier != nil {
			barrier.ObserveSince(start)
		}
		if rest := c.cfg.RoundDuration - time.Since(start); rest > 0 {
			select {
			case <-time.After(rest):
			case <-c.stopCh:
				return
			}
		}
	}
}

// meshLink hands a frame straight to the destination member's ingress —
// the same validate-decode-dispatch path UDP frames take. The frame never
// outlives the call: demux decodes a self-owned PDU before returning.
type meshLink struct{ c *MultiCluster }

func (l meshLink) send(dst mid.ProcID, f *sharedFrame) { l.c.nodes[dst].demux(f.buf) }
