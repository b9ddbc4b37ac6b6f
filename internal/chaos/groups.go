// Multi-group soak: the fault-isolation counterpart of Run. Where Run
// soaks one group under a seeded schedule, RunGroups hosts a
// multi-group cluster (internal/topics), partitions exactly one group by
// dropping that group's frames to and from one member, and watches the
// per-group health verdicts: the partitioned group must degrade on the
// /healthz rules — and recover after the heal — while every co-hosted
// group on the very same nodes, sockets and protocol loops stays healthy
// throughout. That isolation is the point of the per-group observability
// layer: a fault confined to one group reads as that group's problem, not
// as whole-node noise.
package chaos

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/health"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/topics"
)

// GroupsConfig parameterizes one multi-group partition soak. The zero
// value of every field gets a usable default.
type GroupsConfig struct {
	// N is the member count (default 3).
	N int
	// Groups is how many groups share the transport (default 3).
	Groups int
	// Round is the wall-clock round length (default 2ms).
	Round time.Duration
	// Warm bounds the pre-fault wait for an all-healthy verdict with
	// traffic flowing in every group (default 5s).
	Warm time.Duration
	// Fault is how long the partition holds (default 1.5s). The protocol
	// runs with K far above the subruns this can span, so the cut heals
	// as an omission burst — nobody is declared crashed.
	Fault time.Duration
	// Settle bounds the post-heal wait for recovery (default 10s).
	Settle time.Duration
	// SendEvery is each (member, group) submission cadence (default
	// 8*Round).
	SendEvery time.Duration
	// SendTimeout abandons a confirm wait (default max(100*Round, 200ms));
	// abandoned sends are legal — the partitioned group stalls by design.
	SendTimeout time.Duration
	// Target is the group the partition cuts (default 1).
	Target uint32
	// Victim is the member isolated from Target's traffic (default N-1).
	Victim mid.ProcID
	// Metrics receives the cluster's instruments; nil gets a fresh
	// registry (the health monitor needs one either way).
	Metrics *obs.Registry
	// Logf, when non-nil, narrates progress.
	Logf func(format string, args ...any)
}

func (c GroupsConfig) fill() GroupsConfig {
	if c.N == 0 {
		c.N = 3
	}
	if c.Groups == 0 {
		c.Groups = 3
	}
	if c.Round == 0 {
		c.Round = 2 * time.Millisecond
	}
	if c.Warm == 0 {
		c.Warm = 5 * time.Second
	}
	if c.Fault == 0 {
		c.Fault = 1500 * time.Millisecond
	}
	if c.Settle == 0 {
		c.Settle = 10 * time.Second
	}
	if c.SendEvery == 0 {
		c.SendEvery = 8 * c.Round
	}
	if c.SendTimeout == 0 {
		c.SendTimeout = 100 * c.Round
		if c.SendTimeout < 200*time.Millisecond {
			c.SendTimeout = 200 * time.Millisecond
		}
	}
	if c.Target == 0 {
		c.Target = 1
	}
	if c.Victim == 0 {
		c.Victim = mid.ProcID(c.N - 1)
	}
	if c.Metrics == nil {
		c.Metrics = obs.New()
	}
	return c
}

// GroupsReport is the outcome of one multi-group partition soak.
type GroupsReport struct {
	// Target is the partitioned group, Victim the member it lost.
	Target uint32     `json:"target"`
	Victim mid.ProcID `json:"victim"`
	// HealthyBeforeFault reports whether every node's every group reached
	// a healthy verdict, with traffic confirmed in every group, before the
	// cut.
	HealthyBeforeFault bool `json:"healthy_before_fault"`
	// Degraded maps each group that went unhealthy during the fault or
	// recovery window to the rules that fired on it (any node).
	Degraded map[uint32][]string `json:"degraded"`
	// Recovered reports whether every node's every group verdict returned
	// to healthy inside the settle budget after the heal.
	Recovered bool `json:"recovered"`
	// Sent and Confirmed count submissions and completed confirm waits;
	// ConfirmedPerGroup splits the latter by group.
	Sent              int64   `json:"sent"`
	Confirmed         int64   `json:"confirmed"`
	ConfirmedPerGroup []int64 `json:"confirmed_per_group"`
}

// OnlyTargetDegraded reports the soak's acceptance property: the
// partitioned group degraded and no other group did.
func (r *GroupsReport) OnlyTargetDegraded() bool {
	if len(r.Degraded) != 1 {
		return false
	}
	_, ok := r.Degraded[r.Target]
	return ok
}

// String renders a human summary.
func (r *GroupsReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "group partition soak: target group %d, victim p%d\n", r.Target, r.Victim)
	fmt.Fprintf(&b, "  sent=%d confirmed=%d per-group=%v\n", r.Sent, r.Confirmed, r.ConfirmedPerGroup)
	groups := make([]uint32, 0, len(r.Degraded))
	for g := range r.Degraded {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	for _, g := range groups {
		fmt.Fprintf(&b, "  degraded group %d: %s\n", g, strings.Join(r.Degraded[g], "+"))
	}
	fmt.Fprintf(&b, "  healthy-before=%v only-target=%v recovered=%v\n",
		r.HealthyBeforeFault, r.OnlyTargetDegraded(), r.Recovered)
	return b.String()
}

// groupsMonitor evaluates every node's per-group verdicts on a poll
// cadence and accumulates which groups degraded and why.
type groupsMonitor struct {
	evals []*health.MultiEvaluator
	poll  time.Duration

	mu       sync.Mutex
	tracking bool
	degraded map[uint32]map[string]bool
}

func (m *groupsMonitor) evalOnce() (allHealthy bool) {
	allHealthy = true
	for _, e := range m.evals {
		st := e.Eval()
		if st.Healthy {
			continue
		}
		allHealthy = false
		m.mu.Lock()
		if m.tracking {
			for _, r := range st.Reasons {
				set := m.degraded[uint32(r.Group)]
				if set == nil {
					set = make(map[string]bool)
					m.degraded[uint32(r.Group)] = set
				}
				set[r.Rule] = true
			}
		}
		m.mu.Unlock()
	}
	return allHealthy
}

// track turns on degradation accumulation; the warm-up phase is excluded
// so a slow start cannot masquerade as fault fallout.
func (m *groupsMonitor) track() {
	m.mu.Lock()
	m.tracking = true
	m.mu.Unlock()
}

func (m *groupsMonitor) snapshot() map[uint32][]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[uint32][]string, len(m.degraded))
	for g, set := range m.degraded {
		rules := make([]string, 0, len(set))
		for r := range set {
			rules = append(rules, r)
		}
		sort.Strings(rules)
		out[g] = rules
	}
	return out
}

// await polls until every node's every group is healthy (and cond, when
// non-nil, also holds) or the budget runs out.
func (m *groupsMonitor) await(ctx context.Context, budget time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(budget)
	for {
		if m.evalOnce() && (cond == nil || cond()) {
			return true
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return false
		}
		time.Sleep(m.poll)
	}
}

// RunGroups executes one multi-group partition soak: boot the multi-group
// cluster, drive load into every group, wait for an all-healthy baseline,
// cut one member out of one group, hold the cut, heal, and report which
// groups' health verdicts noticed.
func RunGroups(ctx context.Context, cfg GroupsConfig) (*GroupsReport, error) {
	cfg = cfg.fill()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// The cut: an atomic flag consulted by the transport's per-frame drop
	// hook. Only the target group's frames touching the victim are lost;
	// every other group's traffic — on the same transport — is untouched.
	var cut atomic.Bool
	tcfg := topics.Config{
		// K far above the subruns the fault window can span, so neither
		// side declares the other crashed; SelfExclusion off so nobody
		// leaves while its token is cut off.
		Config: core.Config{
			N: cfg.N, K: 600, R: 1202, SelfExclusion: false,
			BatchMax: core.DefaultBatchMax,
		},
		Groups:        cfg.Groups,
		RoundDuration: cfg.Round,
		Metrics:       cfg.Metrics,
		DropFrame: func(group uint32, src, dst mid.ProcID) bool {
			return cut.Load() && group == cfg.Target &&
				(src == cfg.Victim || dst == cfg.Victim)
		},
		Logf: logf,
	}
	cl, err := topics.NewMultiCluster(tcfg)
	if err != nil {
		return nil, err
	}
	cl.Start()
	defer cl.Stop()

	// Per-group health: one flight recording of the shared registry feeds
	// a MultiEvaluator per node, the same wiring urcgc-node serves under
	// -groups.
	interval := 5 * cfg.Round
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	flight := obs.NewFlight(cfg.Metrics, obs.FlightOptions{Interval: interval, Cap: 4096})
	flight.Start()
	defer flight.Stop()
	th := health.Thresholds{
		TokenStallSamples: 10, HistoryWindow: 12, HistoryGrowthMin: 32,
		WaitingStuckSamples: 15, FrontierLagWindow: 12, FrontierLagMin: 12,
	}
	mon := &groupsMonitor{poll: 2 * interval, degraded: make(map[uint32]map[string]bool)}
	for i := 0; i < cfg.N; i++ {
		mon.evals = append(mon.evals, health.NewMultiEvaluator(flight, strconv.Itoa(i), cfg.Groups, th))
	}

	// Load: every (member, group) pair submits on a fixed cadence for the
	// whole run. Sends into the cut group stall by design; the timeout
	// abandons them (legal — the message stays in flight).
	loadCtx, cancelLoad := context.WithCancel(ctx)
	defer cancelLoad()
	var sent, confirmed atomic.Int64
	perGroup := make([]atomic.Int64, cfg.Groups)
	var load sync.WaitGroup
	for i := 0; i < cfg.N; i++ {
		for g := 0; g < cfg.Groups; g++ {
			node, group := cl.Node(mid.ProcID(i)), uint32(g)
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
					if _, err := node.Send(sctx, group, []byte("chaos"), nil); err == nil {
						confirmed.Add(1)
						perGroup[group].Add(1)
					}
					cancel()
				}
			}()
		}
	}
	defer load.Wait()

	rep := &GroupsReport{Target: cfg.Target, Victim: cfg.Victim}

	// Baseline: all verdicts healthy with confirmed traffic in every
	// group, so the degradation to come is attributable to the cut.
	allMoving := func() bool {
		for g := range perGroup {
			if perGroup[g].Load() == 0 {
				return false
			}
		}
		return true
	}
	rep.HealthyBeforeFault = mon.await(ctx, cfg.Warm, allMoving)
	logf("baseline healthy=%v confirmed=%d; cutting group %d from p%d for %v",
		rep.HealthyBeforeFault, confirmed.Load(), cfg.Target, cfg.Victim, cfg.Fault)

	// Fault: hold the cut, polling verdicts throughout.
	mon.track()
	cut.Store(true)
	faultDeadline := time.Now().Add(cfg.Fault)
	for time.Now().Before(faultDeadline) && ctx.Err() == nil {
		mon.evalOnce()
		time.Sleep(mon.poll)
	}
	cut.Store(false)
	logf("healed; degraded so far: %v", mon.snapshot())

	// Recovery: keep accumulating (a late verdict still counts against
	// isolation) until everything is healthy again or the budget ends.
	rep.Recovered = mon.await(ctx, cfg.Settle, nil)

	cancelLoad()
	load.Wait()
	rep.Degraded = mon.snapshot()
	rep.Sent, rep.Confirmed = sent.Load(), confirmed.Load()
	rep.ConfirmedPerGroup = make([]int64, cfg.Groups)
	for g := range perGroup {
		rep.ConfirmedPerGroup[g] = perGroup[g].Load()
	}
	return rep, nil
}
