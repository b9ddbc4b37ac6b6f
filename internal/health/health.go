// Package health evaluates one node's protocol health from the flight
// recorder's gauge time series. Each rule turns a paper claim into a
// runtime check over a sample window:
//
//   - token-stall: the rotating-coordinator scheme means decisions keep
//     arriving with fresh subrun stamps; a frozen core_decision_subrun
//     says the token stopped reaching this node (Section 4's reliable
//     circulation of decisions has broken down for it).
//   - history-growth: Figure 6's claim that history buffers stay bounded
//     because stability keeps cleaning them; a monotonically growing
//     core_history_len says cleaning has stopped.
//   - waiting-stuck: causal delivery means waiting messages drain once
//     dependencies arrive (recovered from history if need be); a
//     persistently non-empty waiting list says recovery is not closing
//     gaps.
//   - frontier-lag: Section 5's bounded stability time; a monotonically
//     growing gap between messages processed and messages uniformly
//     stable says full-group decisions have stopped covering the group.
//
// Rules fire only on evidence spanning a full window; a node with too few
// samples is healthy ("warming up"). All rules recover: one sample of
// progress resets the window.
package health

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"urcgc/internal/obs"
)

// Thresholds tune the health rules. Zero values select the defaults.
type Thresholds struct {
	// TokenStallSamples is how many consecutive samples the freshest
	// decision subrun may stay frozen before the token counts as stalled.
	TokenStallSamples int
	// HistoryWindow is the sample window for the history-growth rule.
	HistoryWindow int
	// HistoryGrowthMin is the minimum history-length growth across a
	// never-shrinking window for the rule to fire (filters flat idle).
	HistoryGrowthMin int64
	// WaitingStuckSamples is how many consecutive samples the waiting
	// list may stay non-empty before messages count as stuck.
	WaitingStuckSamples int
	// FrontierLagWindow is the sample window for the frontier-lag rule.
	FrontierLagWindow int
	// FrontierLagMin is the minimum growth of processed-minus-stable
	// across a never-shrinking window for the rule to fire.
	FrontierLagMin int64
}

// DefaultThresholds are tuned for sampling intervals in the 10ms–1s
// range: a rule needs roughly a dozen intervals of sustained evidence.
var DefaultThresholds = Thresholds{
	TokenStallSamples:   12,
	HistoryWindow:       20,
	HistoryGrowthMin:    32,
	WaitingStuckSamples: 20,
	FrontierLagWindow:   20,
	FrontierLagMin:      16,
}

func (t Thresholds) withDefaults() Thresholds {
	d := DefaultThresholds
	if t.TokenStallSamples <= 0 {
		t.TokenStallSamples = d.TokenStallSamples
	}
	if t.HistoryWindow <= 0 {
		t.HistoryWindow = d.HistoryWindow
	}
	if t.HistoryGrowthMin <= 0 {
		t.HistoryGrowthMin = d.HistoryGrowthMin
	}
	if t.WaitingStuckSamples <= 0 {
		t.WaitingStuckSamples = d.WaitingStuckSamples
	}
	if t.FrontierLagWindow <= 0 {
		t.FrontierLagWindow = d.FrontierLagWindow
	}
	if t.FrontierLagMin <= 0 {
		t.FrontierLagMin = d.FrontierLagMin
	}
	return t
}

// Reason is one machine-readable explanation of an unhealthy verdict.
type Reason struct {
	// Rule names the check that fired: "token-stall", "history-growth",
	// "waiting-stuck" or "frontier-lag".
	Rule string `json:"rule"`
	// Detail is a human-readable elaboration with the numbers.
	Detail string `json:"detail"`
}

// Status is one node's health verdict, the JSON shape of /healthz.
type Status struct {
	Node string `json:"node"`
	// Group is set when the verdict covers one hosted group of a
	// multi-group member rather than the whole node.
	Group   *int     `json:"group,omitempty"`
	Healthy bool     `json:"healthy"`
	Samples int64    `json:"samples"`
	Reasons []Reason `json:"reasons,omitempty"`
	// Joining reports that the member is (or very recently was)
	// state-transferring into the group: the rules are suppressed for a
	// full window because a joiner legitimately freezes the series they
	// watch (no decisions reach it pre-sync, its history installs in one
	// jump, its frontier is the sponsor's).
	Joining bool `json:"joining,omitempty"`
}

// tokenStalled reports whether the last window values are present and
// all identical: the freshest decision's subrun stopped moving.
func tokenStalled(decisionSubrun []int64, window int) bool {
	if len(decisionSubrun) < window {
		return false
	}
	tail := decisionSubrun[len(decisionSubrun)-window:]
	for _, v := range tail[1:] {
		if v != tail[0] {
			return false
		}
	}
	return true
}

// growingMonotonically reports whether the last window values never
// decrease and grow by at least min overall — the shape of an unbounded
// buffer, as opposed to the sawtooth of a cleaned one or a flat idle one.
func growingMonotonically(vals []int64, window int, min int64) bool {
	if len(vals) < window {
		return false
	}
	tail := vals[len(vals)-window:]
	for i := 1; i < len(tail); i++ {
		if tail[i] < tail[i-1] {
			return false
		}
	}
	return tail[len(tail)-1]-tail[0] >= min
}

// stuckNonEmpty reports whether the last window values are all positive:
// the waiting list never drained.
func stuckNonEmpty(vals []int64, window int) bool {
	if len(vals) < window {
		return false
	}
	for _, v := range vals[len(vals)-window:] {
		if v <= 0 {
			return false
		}
	}
	return true
}

// Evaluator applies the rules to one node's flight series. Safe for
// concurrent use (the HTTP handler may race a poller).
type Evaluator struct {
	flight *obs.Flight
	node   string
	group  int // hosted-group id, or -1 when the verdict is whole-node
	th     Thresholds

	mu                 sync.Mutex
	bufA, bufB, bufLag []int64

	// Pre-composed series names (the per-node label is fixed).
	sDecision, sHistory, sWaiting, sProcessed, sStable, sJoining string
}

// NewEvaluator builds the whole-node evaluator of a single-group member
// with the given node label value (e.g. "0"): the rules read the member's
// group-0 series and the verdict carries no group.
func NewEvaluator(f *obs.Flight, node string, th Thresholds) *Evaluator {
	e := NewGroupEvaluator(f, node, 0, th)
	e.group = -1
	return e
}

// NewGroupEvaluator builds an evaluator for one hosted group of a
// member: the rules read that group's {node, group}-labeled series.
func NewGroupEvaluator(f *obs.Flight, node string, group int, th Thresholds) *Evaluator {
	g := strconv.Itoa(group)
	l := func(name string) string { return obs.Labeled(name, "node", node, "group", g) }
	return newEvaluator(f, node, group, th, l)
}

func newEvaluator(f *obs.Flight, node string, group int, th Thresholds, l func(string) string) *Evaluator {
	return &Evaluator{
		flight:     f,
		node:       node,
		group:      group,
		th:         th.withDefaults(),
		sDecision:  l("core_decision_subrun"),
		sHistory:   l("core_history_len"),
		sWaiting:   l("core_waiting_len"),
		sProcessed: l("rt_processed_total"),
		sStable:    l("core_stable_sum"),
		sJoining:   l("core_joining"),
	}
}

// Eval applies every rule to the current flight window.
func (e *Evaluator) Eval() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{Node: e.node, Healthy: true, Samples: e.flight.Samples()}
	if e.group >= 0 {
		g := e.group
		st.Group = &g
	}

	// The widest window any rule needs bounds every Tail read.
	max := e.th.TokenStallSamples
	for _, w := range []int{e.th.HistoryWindow, e.th.WaitingStuckSamples, e.th.FrontierLagWindow} {
		if w > max {
			max = w
		}
	}

	// Join grace window: a state-transferring member freezes exactly the
	// series the rules watch (no decisions pre-sync, history installed in
	// one jump, frontier borrowed from the sponsor). While any sample in
	// the widest rule window still shows core_joining set, report the
	// join instead of false alarms; once the gauge has been clear for a
	// full window the rules resume on post-join evidence only.
	e.bufA = e.flight.Tail(e.sJoining, e.bufA[:0], max)
	for _, v := range e.bufA {
		if v != 0 {
			st.Joining = true
			return st
		}
	}

	e.bufA = e.flight.Tail(e.sDecision, e.bufA[:0], max)
	if tokenStalled(e.bufA, e.th.TokenStallSamples) {
		st.Reasons = append(st.Reasons, Reason{
			Rule: "token-stall",
			Detail: fmt.Sprintf("no fresh decision: core_decision_subrun frozen at %d for %d samples",
				e.bufA[len(e.bufA)-1], e.th.TokenStallSamples),
		})
	}

	e.bufA = e.flight.Tail(e.sHistory, e.bufA[:0], max)
	if growingMonotonically(e.bufA, e.th.HistoryWindow, e.th.HistoryGrowthMin) {
		st.Reasons = append(st.Reasons, Reason{
			Rule: "history-growth",
			Detail: fmt.Sprintf("history buffer grew %d→%d without cleaning over %d samples (Fig. 6 bound at risk)",
				e.bufA[len(e.bufA)-e.th.HistoryWindow], e.bufA[len(e.bufA)-1], e.th.HistoryWindow),
		})
	}

	e.bufA = e.flight.Tail(e.sWaiting, e.bufA[:0], max)
	if stuckNonEmpty(e.bufA, e.th.WaitingStuckSamples) {
		st.Reasons = append(st.Reasons, Reason{
			Rule: "waiting-stuck",
			Detail: fmt.Sprintf("waiting list non-empty (now %d) for %d consecutive samples",
				e.bufA[len(e.bufA)-1], e.th.WaitingStuckSamples),
		})
	}

	e.bufA = e.flight.Tail(e.sProcessed, e.bufA[:0], max)
	e.bufB = e.flight.Tail(e.sStable, e.bufB[:0], max)
	if len(e.bufA) == len(e.bufB) {
		e.bufLag = e.bufLag[:0]
		for i := range e.bufA {
			e.bufLag = append(e.bufLag, e.bufA[i]-e.bufB[i])
		}
		if growingMonotonically(e.bufLag, e.th.FrontierLagWindow, e.th.FrontierLagMin) {
			st.Reasons = append(st.Reasons, Reason{
				Rule: "frontier-lag",
				Detail: fmt.Sprintf("stability frontier falling behind: processed-stable gap grew to %d over %d samples",
					e.bufLag[len(e.bufLag)-1], e.th.FrontierLagWindow),
			})
		}
	}

	st.Healthy = len(st.Reasons) == 0
	return st
}

// Handler serves the verdict as JSON: HTTP 200 when healthy, 503 when
// not (the /healthz endpoint).
func (e *Evaluator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		st := e.Eval()
		w.Header().Set("Content-Type", "application/json")
		if !st.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(st)
	})
}
