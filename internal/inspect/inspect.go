// Package inspect reconstructs the cluster-wide protocol picture from the
// per-node observability endpoints (/status, /metrics, /timeseries,
// /healthz — the nodehttp surface). One probe per node yields a Report:
// the global view agreement, the token position each member believes, the
// min/max stability frontier across the group, and per-sender history
// occupancy. On top of the raw picture it flags divergence:
//
//   - unreachable:      a node did not answer its /status probe.
//   - left:             a node answered but no longer runs the protocol
//     (it left the group — suicide, recovery exhaustion
//     or coordinator silence).
//   - view-divergence:  two members disagree about who is alive. Benign
//     while a crash propagates, so one-shot probes give
//     it a grace re-probe before declaring it real.
//   - token-stall:      a member's freshest decision subrun has not moved
//     for a full sample window of its flight recording —
//     the rotating token is no longer reaching it.
//   - frontier-skew:    the stability frontiers (sum of the clean vector
//     from the freshest full-group decision) have spread
//     wider than the threshold; the lagging members are
//     named, since they are the ones holding back
//     uniform delivery and history cleaning (Fig. 6).
//   - progress-skew:    the processed counts have spread wider than the
//     threshold — the outside view of an active
//     partition, which halts stability group-wide while
//     only the cut-off members stop processing; again
//     the laggards are named.
//   - node-unhealthy:   the node's own /healthz verdict is 503; its
//     machine-readable reasons are carried through.
//
// The package is transport-only glue plus pure diagnosis rules; it embeds
// no protocol logic beyond reading the gauges the runtime exports.
package inspect

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"urcgc/internal/health"
	"urcgc/internal/obs"
	"urcgc/internal/probe"
	"urcgc/internal/rt"
)

// Config tells the collector where the nodes are and how strict to be.
type Config struct {
	// Nodes lists the observability addresses, "host:port" or full URLs.
	Nodes []string
	// Timeout bounds each HTTP request; 0 means 2s.
	Timeout time.Duration
	// Grace is how long OneShot waits before re-probing to confirm that
	// view divergence (and other problems) persist; 0 skips the re-probe.
	Grace time.Duration
	// FrontierSkew is the max-min stability-frontier spread tolerated
	// before lagging nodes are flagged; 0 means 64.
	FrontierSkew int64
	// StallWindow is how many trailing flight samples of a frozen decision
	// subrun count as a token stall; 0 means 12.
	StallWindow int
	// Client overrides the HTTP client (tests); nil uses a default.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.FrontierSkew <= 0 {
		c.FrontierSkew = 64
	}
	if c.StallWindow <= 0 {
		c.StallWindow = 12
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// NodeProbe is everything learned about one node in one probe.
type NodeProbe struct {
	// Addr is the node's normalized base URL.
	Addr string `json:"addr"`
	// Reachable reports whether the /status probe succeeded.
	Reachable bool `json:"reachable"`
	// Err holds the probe error when unreachable.
	Err string `json:"error,omitempty"`
	// Status is the node's protocol state (from /status?format=json).
	Status *rt.Status `json:"status,omitempty"`
	// Health is the node's own verdict (from /healthz), if served.
	Health *health.Status `json:"health,omitempty"`
	// StableSum is the node's stability frontier: the sum of its clean
	// vector, read from group 0's core_stable_sum on /metrics (falling
	// back to the status StableTo vector when the gauge is absent).
	StableSum int64 `json:"stable_sum"`
	// ProcessedSum is the total messages processed, read from group 0's
	// rt_processed_total on /metrics (falling back to the status vector).
	ProcessedSum int64 `json:"processed_sum"`
	// DecisionTail is the trailing window of the node's decision-subrun
	// gauge from /timeseries, oldest first; empty without a flight.
	DecisionTail []int64 `json:"decision_tail,omitempty"`
}

// Problem is one detected divergence.
type Problem struct {
	// Kind is "unreachable", "left", "view-divergence", "token-stall",
	// "frontier-skew", "progress-skew", "node-unhealthy" or "joining".
	Kind string `json:"kind"`
	// Group, when set, scopes the problem to one hosted group of a
	// multi-group cluster; nil means whole-node.
	Group *uint32 `json:"group,omitempty"`
	// Nodes are the addresses involved (for frontier-skew, the laggards).
	Nodes []string `json:"nodes,omitempty"`
	// Detail elaborates with the numbers.
	Detail string `json:"detail"`
	// Informational marks kinds that describe expected transients (a
	// member mid-join) rather than divergence: they are reported but do
	// not flip Report.Healthy or the one-shot exit code.
	Informational bool `json:"informational,omitempty"`
}

// Report is the reconstructed global picture, the JSON shape urcgc-inspect
// prints in one-shot mode.
type Report struct {
	// Healthy is true when no problems were detected.
	Healthy bool `json:"healthy"`
	// Nodes holds one probe per configured address, in input order.
	Nodes []NodeProbe `json:"nodes"`
	// Problems lists every detected divergence.
	Problems []Problem `json:"problems,omitempty"`
	// MinFrontier/MaxFrontier bound the stability frontiers observed
	// across reachable nodes (both 0 when none are reachable).
	MinFrontier int64 `json:"min_frontier"`
	MaxFrontier int64 `json:"max_frontier"`
	// ViewsAgree reports whether every reachable running member holds the
	// same alive mask.
	ViewsAgree bool `json:"views_agree"`
}

// metricValue finds a `name{labels} value` sample in Prometheus text.
func metricValue(body []byte, series string) (int64, bool) {
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		rest := line[len(series):]
		if len(rest) == 0 || rest[0] != ' ' {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// probeNode collects one node's picture. Only the /status fetch is fatal
// to the probe; /metrics, /healthz and /timeseries degrade gracefully so
// a cluster without a flight recorder still inspects.
func probeNode(ctx context.Context, cfg Config, addr string) NodeProbe {
	p := NodeProbe{Addr: addr}
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()

	body, code, err := probe.Fetch(ctx, cfg.Client, addr+"/status?format=json")
	if err != nil {
		p.Err = err.Error()
		return p
	}
	if code != http.StatusOK {
		p.Err = fmt.Sprintf("/status: HTTP %d", code)
		return p
	}
	var st rt.Status
	if err := json.Unmarshal(body, &st); err != nil {
		p.Err = "decoding /status: " + err.Error()
		return p
	}
	p.Reachable = true
	p.Status = &st
	for _, v := range st.StableTo {
		p.StableSum += int64(v)
	}
	for _, v := range st.Processed {
		p.ProcessedSum += int64(v)
	}

	node := strconv.Itoa(int(st.ID))
	if body, code, err := probe.Fetch(ctx, cfg.Client, addr+"/metrics"); err == nil && code == http.StatusOK {
		if v, ok := metricValue(body, obs.Labeled("core_stable_sum", "node", node, "group", "0")); ok {
			p.StableSum = v
		}
		if v, ok := metricValue(body, obs.Labeled("rt_processed_total", "node", node, "group", "0")); ok {
			p.ProcessedSum = v
		}
	}

	// /healthz answers 200 or 503; both carry the JSON verdict.
	if body, code, err := probe.Fetch(ctx, cfg.Client, addr+"/healthz"); err == nil &&
		(code == http.StatusOK || code == http.StatusServiceUnavailable) {
		var h health.Status
		if json.Unmarshal(body, &h) == nil {
			p.Health = &h
		}
	}

	if body, code, err := probe.Fetch(ctx, cfg.Client, addr+"/timeseries"); err == nil && code == http.StatusOK {
		var fs obs.FlightSnapshot
		if json.Unmarshal(body, &fs) == nil {
			tail := fs.Series[obs.Labeled("core_decision_subrun", "node", node, "group", "0")]
			if len(tail) > cfg.StallWindow {
				tail = tail[len(tail)-cfg.StallWindow:]
			}
			p.DecisionTail = tail
		}
	}
	return p
}

// maskString renders an alive mask compactly: "101" = member 1 crashed.
func maskString(alive []bool) string {
	var b strings.Builder
	for _, a := range alive {
		if a {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// joining reports whether the probe's member is mid-join: its own status
// says so, or its /healthz verdict is still inside the join grace window.
// A joiner's frozen token and lagging frontier are the join, not a fault,
// so the divergence rules skip it.
func joining(p NodeProbe) bool {
	if !p.Reachable {
		return false
	}
	return (p.Status != nil && p.Status.Joining) || (p.Health != nil && p.Health.Joining)
}

// skewProblem flags a spread wider than the threshold in one per-node
// quantity, naming the members that trail the leader by more than it.
func skewProblem(probes []NodeProbe, threshold int64, kind, what string, value func(NodeProbe) int64) []Problem {
	var min, max int64
	first := true
	for _, p := range probes {
		if !p.Reachable || joining(p) {
			continue
		}
		v := value(p)
		if first {
			min, max = v, v
			first = false
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if first || max-min <= threshold {
		return nil
	}
	var laggards []string
	for _, p := range probes {
		if p.Reachable && !joining(p) && max-value(p) > threshold {
			laggards = append(laggards, fmt.Sprintf("%s (member %d, %s %d)", p.Addr, p.Status.ID, what, value(p)))
		}
	}
	return []Problem{{
		Kind: kind, Nodes: laggards,
		Detail: fmt.Sprintf("%s spread %d (min %d, max %d) exceeds %d; lagging: %s",
			what, max-min, min, max, threshold, strings.Join(laggards, ", ")),
	}}
}

// groupProblems re-applies the view-divergence and skew rules once per
// hosted group of a multi-group cluster, reading each member's per-group
// summary from Status.Groups. Whole-node checks stay in force (a whole
// node losing the token is still whole-node news); the per-group pass is
// what localizes a divergence to the one group it afflicts — one
// partitioned group reads as that group's problem, not the node's.
func groupProblems(probes []NodeProbe, cfg Config) []Problem {
	ids := map[uint32]bool{}
	for _, p := range probes {
		if !p.Reachable || p.Status == nil {
			continue
		}
		for _, gs := range p.Status.Groups {
			ids[gs.Group] = true
		}
	}
	if len(ids) == 0 {
		return nil
	}
	order := make([]uint32, 0, len(ids))
	for g := range ids {
		order = append(order, g)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	var out []Problem
	for _, gid := range order {
		gid := gid
		// Project each member's per-group summary onto a probe copy so the
		// whole-node rules apply unchanged to the one group's numbers.
		var sub []NodeProbe
		masks := map[string][]string{}
		for _, p := range probes {
			if !p.Reachable || p.Status == nil {
				continue
			}
			for _, gs := range p.Status.Groups {
				if gs.Group != gid {
					continue
				}
				if gs.Joining {
					// The member is still state-transferring into this
					// group: report it, but keep its frozen numbers out of
					// the mask and skew evidence.
					g := gid
					out = append(out, Problem{
						Kind: "joining", Group: &g, Nodes: []string{p.Addr}, Informational: true,
						Detail: fmt.Sprintf("group %d: %s (member %d) is state-transferring back into the group",
							gid, p.Addr, p.Status.ID),
					})
					continue
				}
				q := p
				q.StableSum = gs.StableSum
				q.ProcessedSum = gs.ProcessedSum
				sub = append(sub, q)
				if gs.Running {
					m := maskString(gs.Alive)
					masks[m] = append(masks[m], p.Addr)
				}
			}
		}
		if len(masks) > 1 {
			keys := make([]string, 0, len(masks))
			for m := range masks {
				keys = append(keys, m)
			}
			sort.Strings(keys)
			var parts []string
			var nodes []string
			for _, m := range keys {
				sort.Strings(masks[m])
				parts = append(parts, fmt.Sprintf("%s held by %s", m, strings.Join(masks[m], ",")))
				nodes = append(nodes, masks[m]...)
			}
			g := gid
			out = append(out, Problem{
				Kind: "view-divergence", Group: &g, Nodes: nodes,
				Detail: fmt.Sprintf("group %d: members disagree about who is alive: %s",
					gid, strings.Join(parts, "; ")),
			})
		}
		skews := append(
			skewProblem(sub, cfg.FrontierSkew, "frontier-skew",
				"stability frontier", func(p NodeProbe) int64 { return p.StableSum }),
			skewProblem(sub, cfg.FrontierSkew, "progress-skew",
				"processed count", func(p NodeProbe) int64 { return p.ProcessedSum })...)
		for _, pr := range skews {
			g := gid
			pr.Group = &g
			pr.Detail = fmt.Sprintf("group %d: %s", gid, pr.Detail)
			out = append(out, pr)
		}
	}
	return out
}

// diagnose applies the divergence rules to one round of probes.
func diagnose(probes []NodeProbe, cfg Config) (problems []Problem, viewsAgree bool) {
	viewsAgree = true

	for _, p := range probes {
		if !p.Reachable {
			problems = append(problems, Problem{
				Kind: "unreachable", Nodes: []string{p.Addr},
				Detail: fmt.Sprintf("%s: %s", p.Addr, p.Err),
			})
		}
	}
	for _, p := range probes {
		if p.Reachable && !p.Status.Running {
			problems = append(problems, Problem{
				Kind: "left", Nodes: []string{p.Addr},
				Detail: fmt.Sprintf("%s (member %d) no longer runs the protocol", p.Addr, p.Status.ID),
			})
		}
	}

	// View agreement: every reachable running member must hold the same
	// alive mask. A mid-join member is excluded: its view is the
	// sponsor's snapshot until a decision admits it, and it does not yet
	// appear alive in the others' masks — both disagreements are the join
	// in progress, not divergence.
	masks := map[string][]string{}
	for _, p := range probes {
		if p.Reachable && p.Status.Running && !joining(p) {
			m := maskString(p.Status.Alive)
			masks[m] = append(masks[m], p.Addr)
		}
	}
	if len(masks) > 1 {
		viewsAgree = false
		keys := make([]string, 0, len(masks))
		for m := range masks {
			keys = append(keys, m)
		}
		sort.Strings(keys)
		var parts []string
		var nodes []string
		for _, m := range keys {
			sort.Strings(masks[m])
			parts = append(parts, fmt.Sprintf("%s held by %s", m, strings.Join(masks[m], ",")))
			nodes = append(nodes, masks[m]...)
		}
		problems = append(problems, Problem{
			Kind: "view-divergence", Nodes: nodes,
			Detail: "members disagree about who is alive: " + strings.Join(parts, "; "),
		})
	}

	// Token stall: a frozen decision-subrun window on any running member.
	// A joiner's subrun is legitimately frozen until the sponsor's state
	// installs, so joiners are exempt.
	for _, p := range probes {
		if !p.Reachable || !p.Status.Running || joining(p) || len(p.DecisionTail) < cfg.StallWindow {
			continue
		}
		frozen := true
		for _, v := range p.DecisionTail[1:] {
			if v != p.DecisionTail[0] {
				frozen = false
				break
			}
		}
		if frozen {
			problems = append(problems, Problem{
				Kind: "token-stall", Nodes: []string{p.Addr},
				Detail: fmt.Sprintf("%s (member %d): decision subrun frozen at %d for %d samples",
					p.Addr, p.Status.ID, p.DecisionTail[0], cfg.StallWindow),
			})
		}
	}

	// Skew rules: name the lagging members. Stability-frontier skew says
	// some members hold full-group decisions others never saw (a healed
	// split still reconciling); processed skew says some members are not
	// receiving the traffic at all. The latter is what an active partition
	// looks like from outside: stability halts group-wide (a full-group
	// decision needs reports from every believed-alive member), while the
	// majority side keeps processing and the cut-off member does not.
	problems = append(problems, skewProblem(probes, cfg.FrontierSkew, "frontier-skew",
		"stability frontier", func(p NodeProbe) int64 { return p.StableSum })...)
	problems = append(problems, skewProblem(probes, cfg.FrontierSkew, "progress-skew",
		"processed count", func(p NodeProbe) int64 { return p.ProcessedSum })...)

	// Per-group pass: multi-group members expose Status.Groups, and a
	// divergence confined to one group is reported against that group.
	perGroup := groupProblems(probes, cfg)
	for _, p := range perGroup {
		if p.Kind == "view-divergence" {
			viewsAgree = false
		}
	}
	problems = append(problems, perGroup...)

	// Surface mid-join members as informational problems: visible in the
	// report and in watch mode, but never a failing exit code — a rolling
	// restart would otherwise flap the one-shot verdict on every member.
	for _, p := range probes {
		if joining(p) {
			problems = append(problems, Problem{
				Kind: "joining", Nodes: []string{p.Addr}, Informational: true,
				Detail: fmt.Sprintf("%s (member %d) is state-transferring back into the group",
					p.Addr, p.Status.ID),
			})
		}
	}

	// Carry through each node's own verdict.
	for _, p := range probes {
		if p.Health != nil && !p.Health.Healthy {
			var rules []string
			for _, r := range p.Health.Reasons {
				rules = append(rules, r.Rule)
			}
			problems = append(problems, Problem{
				Kind: "node-unhealthy", Nodes: []string{p.Addr},
				Detail: fmt.Sprintf("%s reports itself unhealthy: %s", p.Addr, strings.Join(rules, ", ")),
			})
		}
	}
	return problems, viewsAgree
}

// Collect probes every configured node once and diagnoses the result.
func Collect(ctx context.Context, cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{Nodes: probe.Fanout(cfg.Nodes, func(_ int, addr string) NodeProbe {
		return probeNode(ctx, cfg, probe.NormalizeAddr(addr))
	})}
	r.Problems, r.ViewsAgree = diagnose(r.Nodes, cfg)
	r.Healthy = healthyProblems(r.Problems)
	for _, p := range r.Nodes {
		if p.Reachable {
			if r.MinFrontier == 0 && r.MaxFrontier == 0 {
				r.MinFrontier, r.MaxFrontier = p.StableSum, p.StableSum
			}
			if p.StableSum < r.MinFrontier {
				r.MinFrontier = p.StableSum
			}
			if p.StableSum > r.MaxFrontier {
				r.MaxFrontier = p.StableSum
			}
		}
	}
	return r
}

// healthyProblems reports whether the problem list carries any real
// divergence. Informational kinds (a member mid-join) never flip the
// verdict or the one-shot exit code.
func healthyProblems(problems []Problem) bool {
	for _, p := range problems {
		if !p.Informational {
			return false
		}
	}
	return true
}

// OneShot probes once and, if problems showed up and a grace period is
// configured, re-probes after it — transient divergence (a crash still
// propagating through attempts counters, a frontier catching up) clears
// itself; only problem kinds present in both rounds are reported.
// Informational problems are always carried through: they never triggered
// the re-probe and must not be able to suppress or cause a failure.
func OneShot(ctx context.Context, cfg Config) Report {
	first := Collect(ctx, cfg)
	if first.Healthy || cfg.Grace <= 0 {
		return first
	}
	select {
	case <-ctx.Done():
		return first
	case <-time.After(cfg.Grace):
	}
	second := Collect(ctx, cfg)
	seen := map[string]bool{}
	for _, p := range first.Problems {
		seen[p.Kind] = true
	}
	persistent := second.Problems[:0]
	for _, p := range second.Problems {
		if p.Informational || seen[p.Kind] {
			persistent = append(persistent, p)
		}
	}
	second.Problems = persistent
	second.Healthy = healthyProblems(second.Problems)
	return second
}

// Summary renders one human-readable line per report, for watch mode.
func Summary(r Report) string {
	reachable := 0
	for _, p := range r.Nodes {
		if p.Reachable {
			reachable++
		}
	}
	verdict := "healthy"
	kinds := map[string]bool{}
	var order []string
	for _, p := range r.Problems {
		if !kinds[p.Kind] {
			kinds[p.Kind] = true
			order = append(order, p.Kind)
		}
	}
	if !r.Healthy {
		verdict = "UNHEALTHY [" + strings.Join(order, ", ") + "]"
	} else if len(order) > 0 {
		// Only informational kinds (e.g. a member mid-join): still healthy.
		verdict = "healthy [" + strings.Join(order, ", ") + "]"
	}
	return fmt.Sprintf("%s nodes=%d/%d views_agree=%v frontier=[%d..%d]",
		verdict, reachable, len(r.Nodes), r.ViewsAgree, r.MinFrontier, r.MaxFrontier)
}

// Watch collects at the given interval, writing one summary line per
// round, until ctx ends. It returns the last report.
func Watch(ctx context.Context, cfg Config, interval time.Duration, w io.Writer) Report {
	if interval <= 0 {
		interval = time.Second
	}
	var last Report
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		r := Collect(ctx, cfg)
		if ctx.Err() != nil {
			// Cancelled mid-probe: the round is truncated, not evidence.
			return last
		}
		last = r
		fmt.Fprintln(w, Summary(last))
		for _, p := range last.Problems {
			fmt.Fprintf(w, "  %s: %s\n", p.Kind, p.Detail)
		}
		select {
		case <-ctx.Done():
			return last
		case <-t.C:
		}
	}
}
