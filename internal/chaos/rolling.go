package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/fault"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/topics"
)

// RollingConfig parameterizes one rolling-restart soak: every member is
// kill -9'd and rejoined in turn, under background omissions and load. The
// zero value of every field gets a usable default.
type RollingConfig struct {
	// Seed feeds the (deterministic) omission counter alignment; kept for
	// symmetry with Config even though the rolling plan itself is fixed.
	Seed int64
	// N is the group size (default 5).
	N int
	// K is the silence threshold (default 4).
	K int
	// R is the recovery-exhaustion threshold (default 12; the self-
	// exclusion rule requires R > 2K).
	R int
	// Round is the wall-clock round length (default 2ms).
	Round time.Duration
	// OmissionEvery drops one datagram in this many at the send boundary
	// for the whole run — the paper's 1/100 curve by default. 0 means the
	// default; negative disables omissions.
	OmissionEvery int
	// SendEvery is each live member's submission cadence (default 4*Round).
	SendEvery time.Duration
	// SendTimeout abandons a confirm wait (default max(100*Round, 200ms)).
	SendTimeout time.Duration
	// PhaseBudget bounds each wait of the rolling plan — crash declared,
	// state installed, rejoin admitted, views re-converged (default 10s).
	PhaseBudget time.Duration
	// Settle bounds the final convergence wait (default PhaseBudget).
	Settle time.Duration
	// Metrics, when non-nil, receives the cluster's instruments.
	Metrics *obs.Registry
	// Logf, when non-nil, narrates progress.
	Logf func(format string, args ...any)
}

func (c RollingConfig) fill() RollingConfig {
	if c.N == 0 {
		c.N = 5
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.R == 0 {
		c.R = 12
	}
	if c.Round == 0 {
		c.Round = 2 * time.Millisecond
	}
	if c.OmissionEvery == 0 {
		c.OmissionEvery = 100
	}
	if c.SendEvery == 0 {
		c.SendEvery = 4 * c.Round
	}
	if c.SendTimeout == 0 {
		c.SendTimeout = 100 * c.Round
		if c.SendTimeout < 200*time.Millisecond {
			c.SendTimeout = 200 * time.Millisecond
		}
	}
	if c.PhaseBudget == 0 {
		c.PhaseBudget = 10 * time.Second
	}
	if c.Settle == 0 {
		c.Settle = c.PhaseBudget
	}
	return c
}

// RollingReport is the outcome of one rolling-restart soak.
type RollingReport struct {
	// Restarted lists the members the plan killed and revived, in order.
	Restarted []mid.ProcID
	// Rejoined lists those whose new incarnation was re-admitted in time.
	Rejoined []mid.ProcID
	// Sent and Confirmed count submissions and completed confirm waits.
	Sent, Confirmed int64
	// Injected counts realized injections per fault kind.
	Injected map[string]int64
	// Converged reports whether every member's processed vector agreed and
	// stabilized inside the settle window.
	Converged bool
	// Healthy reports whether, at the end, every member was running, done
	// joining, and every view held the full group alive.
	Healthy bool
	// Violations are the invariant breaches found; empty means clean.
	Violations []faultrt.Violation
}

// Ok reports whether the run upheld both uniform properties.
func (r *RollingReport) Ok() bool { return len(r.Violations) == 0 }

// String renders a human summary.
func (r *RollingReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rolling restart: %d members cycled, %d rejoined\n", len(r.Restarted), len(r.Rejoined))
	fmt.Fprintf(&b, "sent=%d confirmed=%d converged=%v healthy=%v\n", r.Sent, r.Confirmed, r.Converged, r.Healthy)
	kinds := make([]string, 0, len(r.Injected))
	for k := range r.Injected {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  injected %s: %d\n", k, r.Injected[k])
	}
	if r.Ok() {
		b.WriteString("invariants: uniform atomicity and uniform ordering hold\n")
	} else {
		fmt.Fprintf(&b, "invariants: %d VIOLATIONS\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %v\n", v)
		}
	}
	return b.String()
}

// RunRollingRestart cycles every member through kill -9 and rejoin, one at
// a time, under background omissions and continuous load: kill, wait for
// the survivors to declare the crash, drain the dead member's indication
// backlog, restart it as a joiner (rebaselining the invariant checker at
// the installed stable vector), wait for re-admission and full view
// convergence, then move to the next member. Afterwards the survivors
// settle and the checker audits every incarnation. ctx aborts the plan
// early (the audit still runs on what happened).
func RunRollingRestart(ctx context.Context, cfg RollingConfig) (*RollingReport, error) {
	cfg = cfg.fill()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var inj fault.Injector = fault.None{}
	if cfg.OmissionEvery > 0 {
		inj = &fault.EveryNth{N: cfg.OmissionEvery, Side: fault.AtSend}
	}
	hook := faultrt.NewHook(inj, cfg.Metrics)
	checker := faultrt.NewChecker()

	joinedCh := make(chan mid.ProcID, cfg.N)
	cl, err := topics.NewMultiCluster(topics.Config{
		Config:        core.Config{N: cfg.N, K: cfg.K, R: cfg.R, SelfExclusion: true},
		RoundDuration: cfg.Round,
		Metrics:       cfg.Metrics,
		Fault:         hook,
		JoinInstalled: func(node mid.ProcID, _ uint32, stable mid.SeqVector) {
			checker.Restart(node, stable)
		},
		FastForwarded: func(node mid.ProcID, _ uint32, of mid.ProcID, to mid.Seq) {
			checker.FastForward(node, of, to)
		},
		Joined: func(node mid.ProcID, _ uint32) {
			select {
			case joinedCh <- node:
			default:
			}
		},
	})
	if err != nil {
		return nil, err
	}
	cl.Start()

	// Consumers: one per member, feeding the indication stream into the
	// checker; after drainStop they empty whatever is still buffered.
	var consumers sync.WaitGroup
	drainStop := make(chan struct{})
	for i := 0; i < cfg.N; i++ {
		consume(&consumers, cl.Node(mid.ProcID(i)), checker, drainStop)
	}

	// Load: every member submits on a cadence for the whole plan. Sends on
	// a killed or still-joining member fail fast; both are legal.
	loadCtx, cancelLoad := context.WithCancel(ctx)
	var sent, confirmed atomic.Int64
	var load sync.WaitGroup
	for i := 0; i < cfg.N; i++ {
		node := cl.Node(mid.ProcID(i))
		load.Add(1)
		go func() {
			defer load.Done()
			tick := time.NewTicker(cfg.SendEvery)
			defer tick.Stop()
			for {
				select {
				case <-loadCtx.Done():
					return
				case <-tick.C:
				}
				sctx, cancel := context.WithTimeout(loadCtx, cfg.SendTimeout)
				sent.Add(1)
				if _, err := node.SendCausal(sctx, 0, []byte("roll")); err == nil {
					confirmed.Add(1)
				}
				cancel()
			}
		}()
	}

	rep := &RollingReport{}
	poll := 5 * cfg.Round
	if poll < 5*time.Millisecond {
		poll = 5 * time.Millisecond
	}
	// waitUntil polls cond inside the phase budget; false = budget ran out
	// or the context ended.
	waitUntil := func(cond func() bool) bool {
		deadline := time.Now().Add(cfg.PhaseBudget)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			if cond() {
				return true
			}
			time.Sleep(poll)
		}
		return false
	}
	aliveAt := func(at, q mid.ProcID) (bool, error) {
		var alive bool
		sctx, cancel := context.WithTimeout(ctx, time.Second)
		err := cl.Node(at).Snapshot(sctx, 0, func(p *core.Process) { alive = p.View().Alive(q) })
		cancel()
		return alive, err
	}

	for i := 0; i < cfg.N && ctx.Err() == nil; i++ {
		victim := mid.ProcID(i)
		rep.Restarted = append(rep.Restarted, victim)
		logf("rolling: kill -9 member %d", victim)
		cl.Node(victim).Kill()

		declared := waitUntil(func() bool {
			for q := 0; q < cfg.N; q++ {
				if q == i {
					continue
				}
				if alive, err := aliveAt(mid.ProcID(q), victim); err != nil || alive {
					return false
				}
			}
			return true
		})
		if !declared {
			logf("rolling: survivors never declared member %d crashed", victim)
			break
		}

		// Drain the dead incarnation's indication backlog so nothing of it
		// is recorded after the checker rebaselines.
		backlog, _ := cl.Node(victim).Indications(0)
		waitUntil(func() bool { return len(backlog) == 0 })
		time.Sleep(5 * cfg.Round)

		logf("rolling: restart member %d as joiner", victim)
		if err := cl.Restart(ctx, victim); err != nil {
			logf("rolling: restart of member %d failed: %v", victim, err)
			break
		}
		admitted := waitUntil(func() bool {
			select {
			case q := <-joinedCh:
				return q == victim
			default:
				return false
			}
		})
		if !admitted {
			logf("rolling: member %d never rejoined", victim)
			break
		}
		readmitted := waitUntil(func() bool {
			for q := 0; q < cfg.N; q++ {
				if alive, err := aliveAt(mid.ProcID(q), victim); err != nil || !alive {
					return false
				}
			}
			return true
		})
		if !readmitted {
			logf("rolling: views never re-admitted member %d", victim)
			break
		}
		rep.Rejoined = append(rep.Rejoined, victim)
		logf("rolling: member %d back in the view", victim)
	}

	cancelLoad()
	load.Wait()
	logf("rolling plan over: sent=%d confirmed=%d; settling", sent.Load(), confirmed.Load())

	// Settle: every member's processed vector must agree and stop moving —
	// the recovered group has one history again.
	vectors := func() ([]mid.SeqVector, bool) {
		out := make([]mid.SeqVector, cfg.N)
		for q := 0; q < cfg.N; q++ {
			sctx, cancel := context.WithTimeout(ctx, time.Second)
			err := cl.Node(mid.ProcID(q)).Snapshot(sctx, 0, func(p *core.Process) { out[q] = p.Processed().Clone() })
			cancel()
			if err != nil {
				return nil, false
			}
		}
		return out, true
	}
	converged := false
	deadline := time.Now().Add(cfg.Settle)
	prev, _ := vectors()
	for time.Now().Before(deadline) && ctx.Err() == nil {
		time.Sleep(4 * poll)
		cur, ok := vectors()
		if !ok {
			continue
		}
		same := true
		for q := 1; q < cfg.N; q++ {
			if !cur[0].Equal(cur[q]) {
				same = false
				break
			}
		}
		if same && prev != nil && cur[0].Equal(prev[0]) {
			converged = true
			break
		}
		prev = cur
	}
	rep.Converged = converged

	// Final health: everyone running, done joining, full views everywhere.
	healthy := true
	for q := 0; q < cfg.N; q++ {
		sctx, cancel := context.WithTimeout(ctx, time.Second)
		st, err := cl.Node(mid.ProcID(q)).Status(sctx)
		cancel()
		if err != nil || !st.Running || st.Joining {
			healthy = false
			break
		}
		count := 0
		for _, a := range st.Alive {
			if a {
				count++
			}
		}
		if count != cfg.N {
			healthy = false
			break
		}
	}
	rep.Healthy = healthy

	cl.Stop()
	close(drainStop)
	consumers.Wait()

	rep.Sent = sent.Load()
	rep.Confirmed = confirmed.Load()
	rep.Injected = hook.Injected()
	survivors := make([]mid.ProcID, 0, cfg.N)
	for q := 0; q < cfg.N; q++ {
		node := cl.Node(mid.ProcID(q))
		if _, left := node.Left(0); left || node.Killed() {
			continue
		}
		survivors = append(survivors, mid.ProcID(q))
	}
	rep.Violations = checker.Check(survivors)
	return rep, nil
}
