// Package chaos soaks a live in-process cluster under a seeded wall-clock
// fault schedule and verifies the paper's two uniform properties
// afterwards: Uniform Ordering (causal order respected at every member)
// and Uniform Atomicity (every decided message processed by all surviving
// members or none). It is the wall-clock counterpart of the simulator's
// scripted fault experiments: the faultrt schedule expands a seed into one
// crash, one healed partition, omission bursts and background
// reordering/duplication, the cluster runs under generated load, and a
// faultrt.Checker audits every member's indication stream at the end.
//
// Determinism contract: the fault plan is a pure function of the seed
// (Report.Schedule renders it), so a same-seed rerun faces the identical
// scripted adversary. The realized injection trace additionally depends on
// the datagram interleaving of the run, which wall-clock concurrency does
// not replay; faultrt's own tests pin trace determinism for a fixed
// consultation sequence.
package chaos

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/core"
	"urcgc/internal/fault"
	"urcgc/internal/faultrt"
	"urcgc/internal/health"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/topics"
)

// Config parameterizes one soak. The zero value of every field gets a
// usable default.
type Config struct {
	// Seed selects the fault schedule; same seed, same plan.
	Seed int64
	// N is the group size (default 5).
	N int
	// K is the protocol's silence threshold (default 4); the schedule's
	// partition is kept shorter than K subruns so it heals as an omission
	// burst instead of evicting half the group.
	K int
	// R is the recovery-exhaustion threshold (default 8).
	R int
	// Round is the wall-clock round length (default 2ms).
	Round time.Duration
	// Duration is the fault phase: load runs and faults fire (default 2s).
	Duration time.Duration
	// Settle bounds the post-fault convergence wait (default Duration).
	Settle time.Duration
	// SendEvery is each member's submission cadence (default 4*Round).
	SendEvery time.Duration
	// BatchWindow, when positive, enables the runtime's coalescing sender
	// so the soak exercises DataBatch traffic under the fault schedule.
	BatchWindow time.Duration
	// BatchMax caps the per-subrun drain when batching (0 = runtime
	// default when BatchWindow is set).
	BatchMax int
	// SendTimeout abandons a confirm wait (default max(100*Round, 200ms));
	// abandoned sends are legal — the message stays in flight.
	SendTimeout time.Duration
	// CaptureFrames, when positive, arms a frame flight recorder of that
	// many records on every member (internal/capture); the rings ride the
	// Report so a violating run can be dumped and replayed offline.
	CaptureFrames int
	// CaptureBytes bounds each ring's retained frame bytes (0 = default).
	CaptureBytes int
	// Inject, when non-nil, layers an extra scripted adversary onto the
	// seeded schedule — tests use it for targeted faults (a permanent
	// partition, say) the background plan never generates.
	Inject fault.Injector
	// Metrics, when non-nil, receives the cluster's and the injector's
	// instruments (faultrt_injected_total{kind} among them).
	Metrics *obs.Registry
	// Lifecycle, when non-nil, enables per-message tracing; stuck-span
	// watchdog lines name the injected fault that plausibly caused the
	// stall.
	Lifecycle *lifecycle.Options
	// Logf, when non-nil, narrates progress.
	Logf func(format string, args ...any)
}

func (c Config) fill() Config {
	if c.N == 0 {
		c.N = 5
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.R == 0 {
		c.R = 8
	}
	if c.Round == 0 {
		c.Round = 2 * time.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Settle == 0 {
		c.Settle = c.Duration
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
	return c
}

// Report is the outcome of one soak.
type Report struct {
	// Schedule is the seed-deterministic fault plan the run executed.
	Schedule *faultrt.Schedule
	// Injected counts realized injections per fault kind.
	Injected map[string]int64
	// Sent and Confirmed count submissions and completed confirm waits.
	Sent, Confirmed int64
	// Survivors are the members neither fail-stopped nor self-excluded.
	Survivors []mid.ProcID
	// Killed are the fail-stopped members (the schedule's crash).
	Killed []mid.ProcID
	// Left maps self-excluded members to their protocol-level reason.
	Left map[mid.ProcID]core.LeaveReason
	// Processed counts indications per member.
	Processed map[mid.ProcID]int
	// Converged reports whether the survivors' histories stabilized at the
	// same length inside the settle window.
	Converged bool
	// Violations are the invariant breaches found; empty means clean.
	Violations []faultrt.Violation
	// HealthMonitored reports whether per-node health verdicts were
	// evaluated over a flight recording during the run (Metrics was set).
	HealthMonitored bool
	// HealthDegraded reports whether any member's health verdict went
	// unhealthy while the faults were active — the health layer noticed
	// the adversary.
	HealthDegraded bool
	// DegradedNodes maps each member that went unhealthy to the rules
	// that fired on it.
	DegradedNodes map[mid.ProcID][]string
	// HealthRecovered reports whether every survivor's verdict returned
	// to healthy after the faults cleared.
	HealthRecovered bool
	// Captures holds each member's frame flight recorder when
	// Config.CaptureFrames armed one; DumpCaptures persists them.
	Captures []*capture.Ring
}

// DumpCaptures writes every member's capture ring to dir as
// capture-node<N>.bin (the /capture binary format urcgc-replay ingests),
// returning the written paths. It is a no-op without armed rings.
func (r *Report) DumpCaptures(dir string) ([]string, error) {
	if len(r.Captures) == 0 {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, ring := range r.Captures {
		if ring == nil {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("capture-node%d.bin", ring.Node()))
		f, err := os.Create(path)
		if err != nil {
			return paths, err
		}
		err = ring.Snapshot().Encode(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return paths, fmt.Errorf("dumping %s: %w", path, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// Ok reports whether the run upheld both uniform properties.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// String renders a human summary.
func (r *Report) String() string {
	var b strings.Builder
	b.WriteString(r.Schedule.String())
	fmt.Fprintf(&b, "sent=%d confirmed=%d\n", r.Sent, r.Confirmed)
	for _, p := range r.Survivors {
		fmt.Fprintf(&b, "  survivor p%d processed %d\n", p, r.Processed[p])
	}
	for _, p := range r.Killed {
		fmt.Fprintf(&b, "  killed p%d processed %d\n", p, r.Processed[p])
	}
	for p, reason := range r.Left {
		fmt.Fprintf(&b, "  left p%d (%v) processed %d\n", p, reason, r.Processed[p])
	}
	kinds := make([]string, 0, len(r.Injected))
	for k := range r.Injected {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  injected %s: %d\n", k, r.Injected[k])
	}
	if !r.Converged {
		b.WriteString("  WARNING: survivors did not converge inside the settle window\n")
	}
	if r.HealthMonitored {
		degraded := make([]string, 0, len(r.DegradedNodes))
		for p, rules := range r.DegradedNodes {
			degraded = append(degraded, fmt.Sprintf("p%d(%s)", p, strings.Join(rules, "+")))
		}
		sort.Strings(degraded)
		fmt.Fprintf(&b, "  health: degraded=%v [%s] recovered=%v\n",
			r.HealthDegraded, strings.Join(degraded, " "), r.HealthRecovered)
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

// Run executes one soak: build the schedule, start the cluster with the
// fault hook at its transport boundary, generate load through the fault
// phase, let the survivors settle, then audit every history. ctx aborts
// the fault phase early (the audit still runs on what happened).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.fill()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sched := faultrt.NewSchedule(cfg.Seed, cfg.N, cfg.Duration, cfg.Round, cfg.K)
	logf("%s", sched)
	inj := fault.Injector(sched.Injector())
	if cfg.Inject != nil {
		inj = fault.Multi{inj, cfg.Inject}
	}
	hook := faultrt.NewHook(inj, cfg.Metrics)
	var rings []*capture.Ring
	if cfg.CaptureFrames > 0 {
		rings = make([]*capture.Ring, cfg.N)
		for i := range rings {
			rings[i] = capture.New(capture.Options{
				Node: mid.ProcID(i), N: cfg.N, K: cfg.K, R: cfg.R,
				MaxFrames: cfg.CaptureFrames, MaxBytes: cfg.CaptureBytes,
			})
		}
		// The hook sees every crash verdict first; the mark fences the
		// member's ring so replay knows its silence is death, not loss.
		hook.OnCrash = func(p mid.ProcID, _ time.Duration) {
			if int(p) < len(rings) {
				rings[p].Mark(capture.Crash, fault.KindSet(0).With(fault.KindCrash))
			}
		}
	}
	cl, err := topics.NewMultiCluster(topics.Config{
		Config:        core.Config{N: cfg.N, K: cfg.K, R: cfg.R, BatchMax: cfg.BatchMax},
		RoundDuration: cfg.Round,
		BatchWindow:   cfg.BatchWindow,
		Metrics:       cfg.Metrics,
		Lifecycle:     cfg.Lifecycle,
		Fault:         hook,
		Captures:      rings,
	})
	if err != nil {
		return nil, err
	}
	checker := faultrt.NewChecker()
	cl.Start()

	// Health watch: with a registry present, a flight recording of the
	// cluster's gauges feeds one evaluator per member, so the run can
	// assert the health layer notices the adversary and calms down after.
	var monitor *healthMonitor
	if cfg.Metrics != nil {
		monitor = newHealthMonitor(cfg)
		monitor.start()
	}

	// Consumers: one per member, feeding the indication stream into the
	// checker; after drainStop they empty whatever is still buffered.
	var consumers sync.WaitGroup
	drainStop := make(chan struct{})
	for i := 0; i < cfg.N; i++ {
		consume(&consumers, cl.Node(mid.ProcID(i)), checker, drainStop)
	}

	// Load: every member submits on a fixed cadence through the fault
	// phase. Sends fail fast on a fail-stopped member and are abandoned
	// after SendTimeout otherwise — both legal under the fault model.
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
				if _, err := node.SendCausal(sctx, 0, []byte("chaos")); err == nil {
					confirmed.Add(1)
				}
				cancel()
			}
		}()
	}

	select {
	case <-time.After(cfg.Duration):
	case <-ctx.Done():
	}
	cancelLoad()
	load.Wait()
	logf("fault phase over: sent=%d confirmed=%d; settling", sent.Load(), confirmed.Load())

	// Settle: poll until every survivor's history has the same length and
	// has stopped growing — the protocol has recovered everything the
	// faults delayed — or the settle budget runs out.
	survivors := surviving(cl, cfg.N)
	converged := false
	poll := 20 * cfg.Round
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	deadline := time.Now().Add(cfg.Settle)
	prev := counts(checker, survivors)
	for time.Now().Before(deadline) {
		time.Sleep(poll)
		survivors = surviving(cl, cfg.N)
		cur := counts(checker, survivors)
		if equalAll(cur) && sameCounts(prev, cur) {
			converged = true
			break
		}
		prev = cur
	}

	// Health verdicts are read before Stop (the evaluators watch live
	// gauges); recovery gets its own settle-sized budget since the
	// windows need a stretch of healthy samples to clear.
	var monitored, recovered bool
	var degraded map[mid.ProcID][]string
	if monitor != nil {
		monitored = true
		recovered = monitor.awaitRecovery(surviving(cl, cfg.N), cfg.Settle)
		degraded = monitor.degradedNodes()
		monitor.shutdown()
		logf("health: degraded=%d nodes, survivors recovered=%v", len(degraded), recovered)
	}
	cl.Stop()
	close(drainStop)
	consumers.Wait()

	rep := &Report{
		HealthMonitored: monitored,
		HealthDegraded:  len(degraded) > 0,
		DegradedNodes:   degraded,
		HealthRecovered: recovered,
		Schedule:        sched,
		Injected:        hook.Injected(),
		Sent:            sent.Load(),
		Confirmed:       confirmed.Load(),
		Left:            make(map[mid.ProcID]core.LeaveReason),
		Processed:       make(map[mid.ProcID]int),
		Converged:       converged,
		Captures:        rings,
	}
	for i := 0; i < cfg.N; i++ {
		p := mid.ProcID(i)
		node := cl.Node(p)
		rep.Processed[p] = checker.Recorded(p)
		if reason, left := node.Left(0); left {
			rep.Left[p] = reason
			continue
		}
		if node.Killed() {
			rep.Killed = append(rep.Killed, p)
			continue
		}
		rep.Survivors = append(rep.Survivors, p)
	}
	rep.Violations = checker.Check(rep.Survivors)
	return rep, nil
}

// healthMonitor samples the cluster's gauges into a flight recording and
// evaluates every member's health on a poll cadence, accumulating which
// members degraded and why while the adversary was active.
type healthMonitor struct {
	flight *obs.Flight
	evals  []*health.Evaluator
	poll   time.Duration

	mu       sync.Mutex
	degraded map[mid.ProcID]map[string]bool

	stop chan struct{}
	done chan struct{}
}

// newHealthMonitor tunes the sampling interval and rule windows to the
// round length, so a soak at 2ms rounds degrades and recovers inside the
// CI smoke budget while a slower cluster still gets sane windows.
func newHealthMonitor(cfg Config) *healthMonitor {
	interval := 5 * cfg.Round
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	th := health.Thresholds{
		TokenStallSamples: 10, HistoryWindow: 12, HistoryGrowthMin: 32,
		WaitingStuckSamples: 15, FrontierLagWindow: 12, FrontierLagMin: 12,
	}
	m := &healthMonitor{
		flight:   obs.NewFlight(cfg.Metrics, obs.FlightOptions{Interval: interval, Cap: 2048}),
		poll:     2 * interval,
		degraded: make(map[mid.ProcID]map[string]bool),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i := 0; i < cfg.N; i++ {
		m.evals = append(m.evals, health.NewEvaluator(m.flight, fmt.Sprint(i), th))
	}
	return m
}

func (m *healthMonitor) start() {
	m.flight.Start()
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.poll)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.evalOnce()
			}
		}
	}()
}

func (m *healthMonitor) evalOnce() {
	for i, e := range m.evals {
		st := e.Eval()
		if st.Healthy {
			continue
		}
		m.mu.Lock()
		set := m.degraded[mid.ProcID(i)]
		if set == nil {
			set = make(map[string]bool)
			m.degraded[mid.ProcID(i)] = set
		}
		for _, r := range st.Reasons {
			set[r.Rule] = true
		}
		m.mu.Unlock()
	}
}

// degradedNodes snapshots who went unhealthy so far, and why.
func (m *healthMonitor) degradedNodes() map[mid.ProcID][]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[mid.ProcID][]string, len(m.degraded))
	for p, set := range m.degraded {
		rules := make([]string, 0, len(set))
		for r := range set {
			rules = append(rules, r)
		}
		sort.Strings(rules)
		out[p] = rules
	}
	return out
}

// awaitRecovery polls until every listed member's verdict is healthy
// again, or the budget runs out.
func (m *healthMonitor) awaitRecovery(members []mid.ProcID, budget time.Duration) bool {
	deadline := time.Now().Add(budget)
	for {
		healthy := true
		for _, p := range members {
			if !m.evals[p].Eval().Healthy {
				healthy = false
				break
			}
		}
		if healthy {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(m.poll)
	}
}

func (m *healthMonitor) shutdown() {
	close(m.stop)
	<-m.done
	m.flight.Stop()
}

// consume feeds one member's group-0 indication stream into the checker;
// after drainStop it empties whatever is still buffered and returns.
func consume(wg *sync.WaitGroup, node *topics.MultiNode, checker *faultrt.Checker, drainStop <-chan struct{}) {
	ind, _ := node.Indications(0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case i := <-ind:
				checker.Record(node.ID(), &i.Msg)
			case <-drainStop:
				for {
					select {
					case i := <-ind:
						checker.Record(node.ID(), &i.Msg)
					default:
						return
					}
				}
			}
		}
	}()
}

// surviving lists members neither fail-stopped nor self-excluded.
func surviving(cl *topics.MultiCluster, n int) []mid.ProcID {
	var out []mid.ProcID
	for i := 0; i < n; i++ {
		node := cl.Node(mid.ProcID(i))
		if _, left := node.Left(0); left || node.Killed() {
			continue
		}
		out = append(out, mid.ProcID(i))
	}
	return out
}

func counts(c *faultrt.Checker, procs []mid.ProcID) map[mid.ProcID]int {
	out := make(map[mid.ProcID]int, len(procs))
	for _, p := range procs {
		out[p] = c.Recorded(p)
	}
	return out
}

// equalAll reports whether every count is identical.
func equalAll(m map[mid.ProcID]int) bool {
	first, have := 0, false
	for _, v := range m {
		if !have {
			first, have = v, true
			continue
		}
		if v != first {
			return false
		}
	}
	return true
}

func sameCounts(a, b map[mid.ProcID]int) bool {
	if len(a) != len(b) {
		return false
	}
	for p, v := range a {
		if b[p] != v {
			return false
		}
	}
	return true
}
