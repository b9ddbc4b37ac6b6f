package topics

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
	for _, s := range n.sessions {
		s.coal.Admit()
	}
	return nil
}

// clock drives rounds in lockstep: every protocol entity of every member
// finishes round r before any starts r+1, and rounds keep the configured
// period (roundSchedule). Each round first fail-stops members whose crash
// the fault hook has scheduled; a killed member's entities skip the tick.
// The barrier's wait is the one cluster-wide series,
// rt_round_barrier_seconds.
func (c *MultiCluster) clock() {
	var barrier *obs.Histogram
	if c.cfg.Metrics != nil {
		barrier = c.cfg.Metrics.Histogram("rt_round_barrier_seconds", obs.DurationBuckets)
	}
	// One tick closure per entity for the whole run: each reads the round
	// number the clock published before enqueueing it, and the last one of
	// a round to finish signals done.
	var (
		round   atomic.Int64
		waiting atomic.Int64
		done    = make(chan struct{}, 1)
		ticks   = make([][]func(), len(c.nodes))
	)
	for i, n := range c.nodes {
		for _, s := range n.sessions {
			s := s
			ticks[i] = append(ticks[i], func() {
				s.tick(int(round.Load()))
				if waiting.Add(-1) == 0 {
					done <- struct{}{}
				}
			})
		}
	}
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	sched := roundSchedule{anchor: time.Now(), period: c.cfg.RoundDuration}
	for r := 0; ; r++ {
		start := time.Now()
		round.Store(int64(r))
		waiting.Store(int64(c.cfg.N * c.cfg.Groups))
		for i, n := range c.nodes {
			n.crashCheck()
			for g, s := range n.sessions {
				s.obs.SampleInbox(len(n.inbox))
				select {
				case n.inbox <- ticks[i][g]:
				case <-c.stopCh:
					return
				}
			}
		}
		select {
		case <-done:
		case <-c.stopCh:
			return
		}
		if barrier != nil {
			barrier.ObserveSince(start)
		}
		if wait := sched.wait(r+1, time.Now()); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-c.stopCh:
				return
			}
		}
	}
}

// roundSchedule paces the lockstep clock: round r is due at
// anchor + (r−base)·period, whenever the previous round finished. A timer
// that fires late or a slow barrier is thus absorbed by the next round's
// sleep instead of pushing every later round back. A round more than a
// whole period overdue starts at once and re-anchors the schedule there,
// so a long stall is not followed by a burst of back-to-back rounds.
type roundSchedule struct {
	anchor time.Time
	base   int
	period time.Duration
}

// wait returns how long to sleep, at now, before round r starts.
func (s *roundSchedule) wait(r int, now time.Time) time.Duration {
	d := s.anchor.Add(time.Duration(r-s.base) * s.period).Sub(now)
	if d < -s.period {
		s.anchor, s.base = now, r
	}
	return max(d, 0)
}

// meshLink hands a frame straight to the destination member's ingress —
// the same validate-decode-dispatch path UDP frames take. The frame never
// outlives the call: demux decodes a self-owned PDU before returning.
type meshLink struct{ c *MultiCluster }

func (l meshLink) send(dst mid.ProcID, f *sharedFrame) { l.c.nodes[dst].demux(f.buf) }
