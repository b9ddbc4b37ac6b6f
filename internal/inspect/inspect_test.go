package inspect

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"urcgc/internal/health"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/rt"
)

// fakeNode serves canned nodehttp responses for one member.
type fakeNode struct {
	mu         sync.Mutex
	status     rt.Status
	health     *health.Status
	metrics    string
	timeseries *obs.FlightSnapshot
	srv        *httptest.Server
}

func newFakeNode(t *testing.T, st rt.Status) *fakeNode {
	t.Helper()
	f := &fakeNode{status: st}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		switch r.URL.Path {
		case "/status":
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(f.status)
		case "/metrics":
			fmt.Fprint(w, f.metrics)
		case "/healthz":
			if f.health == nil {
				http.NotFound(w, r)
				return
			}
			if !f.health.Healthy {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			_ = json.NewEncoder(w).Encode(f.health)
		case "/timeseries":
			if f.timeseries == nil {
				http.NotFound(w, r)
				return
			}
			_ = json.NewEncoder(w).Encode(f.timeseries)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeNode) set(mut func(*fakeNode)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mut(f)
}

// runningStatus builds a healthy member's status.
func runningStatus(id, n int, stable int64) rt.Status {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	st := rt.Status{
		ID: mid.ProcID(id), N: n, Running: true,
		Subrun: 40, Coordinator: mid.ProcID(id % n),
		Processed: make(mid.SeqVector, n),
		StableTo:  make(mid.SeqVector, n),
		Alive:     alive,
	}
	for i := range st.StableTo {
		st.StableTo[i] = mid.Seq(stable / int64(n))
		st.Processed[i] = mid.Seq(stable/int64(n) + 1)
	}
	return st
}

func addrs(fakes []*fakeNode) []string {
	out := make([]string, len(fakes))
	for i, f := range fakes {
		out[i] = f.srv.URL
	}
	return out
}

func collect(t *testing.T, cfg Config) Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return Collect(ctx, cfg)
}

func problemKinds(r Report) []string {
	out := make([]string, 0, len(r.Problems))
	for _, p := range r.Problems {
		out = append(out, p.Kind)
	}
	return out
}

func hasProblem(r Report, kind string) bool {
	for _, p := range r.Problems {
		if p.Kind == kind {
			return true
		}
	}
	return false
}

func TestHealthyCluster(t *testing.T) {
	fakes := []*fakeNode{
		newFakeNode(t, runningStatus(0, 3, 12)),
		newFakeNode(t, runningStatus(1, 3, 12)),
		newFakeNode(t, runningStatus(2, 3, 9)),
	}
	r := collect(t, Config{Nodes: addrs(fakes)})
	if !r.Healthy || !r.ViewsAgree {
		t.Fatalf("healthy cluster flagged: %+v", r.Problems)
	}
	if r.MinFrontier != 9 || r.MaxFrontier != 12 {
		t.Fatalf("frontier bounds = [%d..%d], want [9..12]", r.MinFrontier, r.MaxFrontier)
	}
	if len(r.Nodes) != 3 || !r.Nodes[2].Reachable || r.Nodes[2].Status.ID != 2 {
		t.Fatalf("probes: %+v", r.Nodes)
	}
}

func TestUnreachableNode(t *testing.T) {
	f0 := newFakeNode(t, runningStatus(0, 2, 4))
	f1 := newFakeNode(t, runningStatus(1, 2, 4))
	dead := f1.srv.URL
	f1.srv.Close()
	r := collect(t, Config{Nodes: []string{f0.srv.URL, dead}, Timeout: time.Second})
	if r.Healthy || !hasProblem(r, "unreachable") {
		t.Fatalf("dead node not flagged: %v", problemKinds(r))
	}
	if r.Nodes[1].Reachable || r.Nodes[1].Err == "" {
		t.Fatalf("probe of dead node: %+v", r.Nodes[1])
	}
}

func TestLeftNode(t *testing.T) {
	st := runningStatus(1, 3, 6)
	st.Running = false
	fakes := []*fakeNode{
		newFakeNode(t, runningStatus(0, 3, 6)),
		newFakeNode(t, st),
		newFakeNode(t, runningStatus(2, 3, 6)),
	}
	r := collect(t, Config{Nodes: addrs(fakes)})
	if r.Healthy || !hasProblem(r, "left") {
		t.Fatalf("departed member not flagged: %v", problemKinds(r))
	}
}

func TestViewDivergence(t *testing.T) {
	st2 := runningStatus(2, 3, 6)
	st2.Alive = []bool{true, false, true} // believes member 1 crashed
	fakes := []*fakeNode{
		newFakeNode(t, runningStatus(0, 3, 6)),
		newFakeNode(t, runningStatus(1, 3, 6)),
		newFakeNode(t, st2),
	}
	r := collect(t, Config{Nodes: addrs(fakes)})
	if r.Healthy || r.ViewsAgree || !hasProblem(r, "view-divergence") {
		t.Fatalf("divergent views not flagged: %v", problemKinds(r))
	}
	for _, p := range r.Problems {
		if p.Kind == "view-divergence" {
			if !strings.Contains(p.Detail, "101") || !strings.Contains(p.Detail, "111") {
				t.Fatalf("divergence detail lacks the masks: %s", p.Detail)
			}
		}
	}
}

func TestTokenStall(t *testing.T) {
	frozen := newFakeNode(t, runningStatus(0, 2, 6))
	frozen.set(func(f *fakeNode) {
		f.timeseries = &obs.FlightSnapshot{
			Samples: 8,
			Series: map[string][]int64{
				obs.Labeled("core_decision_subrun", "node", "0", "group", "0"): {7, 7, 7, 7, 7, 7, 7, 7},
			},
		}
	})
	moving := newFakeNode(t, runningStatus(1, 2, 6))
	moving.set(func(f *fakeNode) {
		f.timeseries = &obs.FlightSnapshot{
			Samples: 8,
			Series: map[string][]int64{
				obs.Labeled("core_decision_subrun", "node", "1", "group", "0"): {3, 4, 5, 6, 7, 8, 9, 10},
			},
		}
	})
	r := collect(t, Config{Nodes: addrs([]*fakeNode{frozen, moving}), StallWindow: 6})
	if r.Healthy || !hasProblem(r, "token-stall") {
		t.Fatalf("frozen token not flagged: %v", problemKinds(r))
	}
	stalls := 0
	for _, p := range r.Problems {
		if p.Kind == "token-stall" {
			stalls++
			if len(p.Nodes) != 1 || p.Nodes[0] != frozen.srv.URL {
				t.Fatalf("stall names %v, want only the frozen node", p.Nodes)
			}
		}
	}
	if stalls != 1 {
		t.Fatalf("stall problems = %d, want 1", stalls)
	}
}

func TestTokenStallNeedsFullWindow(t *testing.T) {
	// Too few samples must NOT fire: a freshly booted cluster is warming up.
	f := newFakeNode(t, runningStatus(0, 1, 0))
	f.set(func(fn *fakeNode) {
		fn.timeseries = &obs.FlightSnapshot{
			Samples: 3,
			Series: map[string][]int64{
				obs.Labeled("core_decision_subrun", "node", "0", "group", "0"): {7, 7, 7},
			},
		}
	})
	r := collect(t, Config{Nodes: addrs([]*fakeNode{f}), StallWindow: 6})
	if hasProblem(r, "token-stall") {
		t.Fatalf("warming-up node flagged as stalled: %v", problemKinds(r))
	}
}

func TestFrontierSkewNamesLaggards(t *testing.T) {
	fakes := []*fakeNode{
		newFakeNode(t, runningStatus(0, 3, 120)),
		newFakeNode(t, runningStatus(1, 3, 117)),
		newFakeNode(t, runningStatus(2, 3, 3)), // partitioned away
	}
	r := collect(t, Config{Nodes: addrs(fakes), FrontierSkew: 32})
	if r.Healthy || !hasProblem(r, "frontier-skew") {
		t.Fatalf("skew not flagged: %v", problemKinds(r))
	}
	for _, p := range r.Problems {
		if p.Kind == "frontier-skew" {
			if len(p.Nodes) != 1 || !strings.Contains(p.Nodes[0], fakes[2].srv.URL) {
				t.Fatalf("laggards = %v, want only node 2", p.Nodes)
			}
			if !strings.Contains(p.Detail, "member 2") {
				t.Fatalf("detail does not name the lagging member: %s", p.Detail)
			}
		}
	}
}

func TestProgressSkewNamesPartitionedNode(t *testing.T) {
	// An active partition from outside: stability frozen everywhere (equal
	// stable sums) while only the cut-off member stops processing.
	cut := runningStatus(2, 3, 30)
	cut.Processed = mid.SeqVector{10, 1, 1}
	majority := func(id int) rt.Status {
		st := runningStatus(id, 3, 30)
		st.Processed = mid.SeqVector{60, 60, 1}
		return st
	}
	fakes := []*fakeNode{
		newFakeNode(t, majority(0)),
		newFakeNode(t, majority(1)),
		newFakeNode(t, cut),
	}
	r := collect(t, Config{Nodes: addrs(fakes), FrontierSkew: 32})
	if r.Healthy || !hasProblem(r, "progress-skew") {
		t.Fatalf("processing laggard not flagged: %v", problemKinds(r))
	}
	if hasProblem(r, "frontier-skew") {
		t.Fatalf("equal stable sums flagged as frontier skew: %v", problemKinds(r))
	}
	for _, p := range r.Problems {
		if p.Kind == "progress-skew" {
			if len(p.Nodes) != 1 || !strings.Contains(p.Nodes[0], fakes[2].srv.URL) {
				t.Fatalf("laggards = %v, want only the cut-off node", p.Nodes)
			}
		}
	}
}

func TestMetricsOverrideStatusSums(t *testing.T) {
	f := newFakeNode(t, runningStatus(0, 1, 6))
	f.set(func(fn *fakeNode) {
		fn.metrics = "# TYPE core_stable_sum gauge\n" +
			"core_stable_sum{node=\"0\",group=\"0\"} 42\n" +
			"# TYPE rt_processed_total counter\n" +
			"rt_processed_total{node=\"0\",group=\"0\"} 43\n"
	})
	r := collect(t, Config{Nodes: addrs([]*fakeNode{f})})
	if r.Nodes[0].StableSum != 42 || r.Nodes[0].ProcessedSum != 43 {
		t.Fatalf("metrics did not override sums: %+v", r.Nodes[0])
	}
}

func TestNodeUnhealthyCarriesReasons(t *testing.T) {
	f := newFakeNode(t, runningStatus(0, 1, 6))
	f.set(func(fn *fakeNode) {
		fn.health = &health.Status{Node: "0", Healthy: false, Reasons: []health.Reason{
			{Rule: "token-stall", Detail: "frozen"},
		}}
	})
	r := collect(t, Config{Nodes: addrs([]*fakeNode{f})})
	if r.Healthy || !hasProblem(r, "node-unhealthy") {
		t.Fatalf("503 healthz not surfaced: %v", problemKinds(r))
	}
	for _, p := range r.Problems {
		if p.Kind == "node-unhealthy" && !strings.Contains(p.Detail, "token-stall") {
			t.Fatalf("reasons not carried through: %s", p.Detail)
		}
	}
}

// TestOneShotGraceClearsTransient pins the grace re-probe: divergence that
// heals between the two probes is not reported, divergence that persists is.
func TestOneShotGraceClearsTransient(t *testing.T) {
	st1 := runningStatus(1, 2, 6)
	st1.Alive = []bool{false, true} // transiently disagrees
	f0 := newFakeNode(t, runningStatus(0, 2, 6))
	f1 := newFakeNode(t, st1)

	go func() {
		time.Sleep(50 * time.Millisecond)
		f1.set(func(fn *fakeNode) { fn.status = runningStatus(1, 2, 6) })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cfg := Config{Nodes: addrs([]*fakeNode{f0, f1}), Grace: 300 * time.Millisecond}
	if r := OneShot(ctx, cfg); !r.Healthy {
		t.Fatalf("healed divergence still reported: %v", problemKinds(r))
	}

	// Persistent divergence survives the grace re-probe.
	f1.set(func(fn *fakeNode) {
		st := runningStatus(1, 2, 6)
		st.Alive = []bool{false, true}
		fn.status = st
	})
	cfg.Grace = 50 * time.Millisecond
	if r := OneShot(ctx, cfg); r.Healthy || !hasProblem(r, "view-divergence") {
		t.Fatalf("persistent divergence cleared: %v", problemKinds(r))
	}
}

func TestWatchEmitsSummaries(t *testing.T) {
	f := newFakeNode(t, runningStatus(0, 1, 6))
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	var buf strings.Builder
	r := Watch(ctx, Config{Nodes: addrs([]*fakeNode{f})}, 50*time.Millisecond, &buf)
	if !r.Healthy {
		t.Fatalf("watch final report unhealthy: %v", problemKinds(r))
	}
	lines := strings.Count(buf.String(), "\n")
	if lines < 2 || !strings.Contains(buf.String(), "healthy nodes=1/1") {
		t.Fatalf("watch output (%d lines): %q", lines, buf.String())
	}
}

func TestMetricValue(t *testing.T) {
	body := []byte("# TYPE x counter\nx{node=\"0\"} 7\nx{node=\"10\"} 9\ny 3\n")
	if v, ok := metricValue(body, `x{node="0"}`); !ok || v != 7 {
		t.Errorf(`x{node="0"} = %d,%v`, v, ok)
	}
	if v, ok := metricValue(body, `x{node="1"}`); ok {
		t.Errorf(`x{node="1"} matched a prefix: %d`, v)
	}
	if v, ok := metricValue(body, `y`); !ok || v != 3 {
		t.Errorf("y = %d,%v", v, ok)
	}
	if _, ok := metricValue(body, `absent`); ok {
		t.Error("absent series matched")
	}
}

func TestSummaryLine(t *testing.T) {
	r := Report{Healthy: true, ViewsAgree: true,
		Nodes:       []NodeProbe{{Reachable: true}, {Reachable: true}},
		MinFrontier: 3, MaxFrontier: 9}
	if got := Summary(r); got != "healthy nodes=2/2 views_agree=true frontier=[3..9]" {
		t.Fatalf("summary = %q", got)
	}
	r.Healthy = false
	r.Problems = []Problem{{Kind: "unreachable"}, {Kind: "frontier-skew"}, {Kind: "unreachable"}}
	if got := Summary(r); !strings.Contains(got, "UNHEALTHY [unreachable, frontier-skew]") {
		t.Fatalf("unhealthy summary = %q", got)
	}
}

// TestJoiningMemberIsInformational pins the rejoin grace: a member that is
// state-transferring back into the group trips none of the divergence
// rules its join legitimately causes — the stale view mask, the frozen
// decision subrun, the lagging frontier — and is surfaced only as an
// informational "joining" problem that leaves the verdict healthy.
func TestJoiningMemberIsInformational(t *testing.T) {
	// Survivors still exclude member 2; the joiner reports a full view
	// from its sponsor's snapshot, a frontier far behind, and no fresh
	// decisions yet.
	survivor := func(id int) rt.Status {
		st := runningStatus(id, 3, 120)
		st.Alive = []bool{true, true, false}
		return st
	}
	joiner := runningStatus(2, 3, 3)
	joiner.Joining = true
	fakes := []*fakeNode{
		newFakeNode(t, survivor(0)),
		newFakeNode(t, survivor(1)),
		newFakeNode(t, joiner),
	}
	fakes[2].set(func(f *fakeNode) {
		f.timeseries = &obs.FlightSnapshot{
			Samples: 8,
			Series: map[string][]int64{
				obs.Labeled("core_decision_subrun", "node", "2", "group", "0"): {7, 7, 7, 7, 7, 7, 7, 7},
			},
		}
	})
	r := collect(t, Config{Nodes: addrs(fakes), FrontierSkew: 32, StallWindow: 6})
	if !r.Healthy {
		t.Fatalf("joining member flipped the verdict: %v", problemKinds(r))
	}
	if !r.ViewsAgree {
		t.Fatal("joiner's stale mask counted as view divergence")
	}
	if !hasProblem(r, "joining") {
		t.Fatalf("join not surfaced: %v", problemKinds(r))
	}
	for _, p := range r.Problems {
		if p.Kind != "joining" {
			t.Fatalf("rule fired on join evidence: %+v", p)
		}
		if !p.Informational || !strings.Contains(p.Detail, "member 2") {
			t.Fatalf("joining problem malformed: %+v", p)
		}
	}
	if s := Summary(r); !strings.Contains(s, "healthy [joining]") {
		t.Fatalf("summary hides the join: %q", s)
	}

	// One-shot with a grace window: the informational problem must not
	// cost the exit-code verdict a re-probe round either.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	one := OneShot(ctx, Config{Nodes: addrs(fakes), FrontierSkew: 32, StallWindow: 6, Grace: 200 * time.Millisecond})
	if !one.Healthy || !hasProblem(one, "joining") {
		t.Fatalf("one-shot verdict with joiner: healthy=%v problems=%v", one.Healthy, problemKinds(one))
	}
}

// TestPerGroupJoiningIsInformational is the multi-group variant: one
// hosted group of one member mid-join is reported against that group,
// informationally, while the rest of the cluster stays clean.
func TestPerGroupJoiningIsInformational(t *testing.T) {
	mkStatus := func(id int, g1 rt.GroupStatus) rt.Status {
		st := runningStatus(id, 3, 12)
		st.Groups = []rt.GroupStatus{groupSummary(0, 3, 200, nil), g1}
		return st
	}
	rejoining := groupSummary(1, 3, 5, nil)
	rejoining.Joining = true
	fakes := []*fakeNode{
		newFakeNode(t, mkStatus(0, groupSummary(1, 3, 200, []bool{true, true, false}))),
		newFakeNode(t, mkStatus(1, groupSummary(1, 3, 200, []bool{true, true, false}))),
		newFakeNode(t, mkStatus(2, rejoining)),
	}
	r := collect(t, Config{Nodes: addrs(fakes)})
	if !r.Healthy || !r.ViewsAgree {
		t.Fatalf("per-group join flagged: %v", problemKinds(r))
	}
	if !hasProblem(r, "joining") {
		t.Fatalf("per-group join not surfaced: %v", problemKinds(r))
	}
	for _, p := range r.Problems {
		if p.Kind != "joining" || !p.Informational {
			t.Fatalf("unexpected problem: %+v", p)
		}
		if p.Group == nil || *p.Group != 1 {
			t.Fatalf("joining problem not scoped to group 1: %+v", p)
		}
	}
}

// groupSummary builds one hosted group's summary for a multi-group fake.
func groupSummary(group uint32, n int, processed int64, alive []bool) rt.GroupStatus {
	if alive == nil {
		alive = make([]bool, n)
		for i := range alive {
			alive[i] = true
		}
	}
	return rt.GroupStatus{
		Group: group, Running: true, Subrun: 40,
		Alive:        alive,
		ProcessedSum: processed,
		StableSum:    processed,
	}
}

// TestPerGroupProblems pins satellite behaviour: on multi-group members a
// divergence confined to one group is reported against that group — with
// the group id in the Problem JSON — while the healthy group and the
// whole-node rules stay quiet.
func TestPerGroupProblems(t *testing.T) {
	mkStatus := func(id int, g1Processed int64, g1Alive []bool) rt.Status {
		st := runningStatus(id, 3, 12)
		st.Groups = []rt.GroupStatus{
			groupSummary(0, 3, 200, nil),
			groupSummary(1, 3, g1Processed, g1Alive),
		}
		return st
	}
	fakes := []*fakeNode{
		newFakeNode(t, mkStatus(0, 200, nil)),
		newFakeNode(t, mkStatus(1, 200, nil)),
		// Member 2: group 1 is cut off — it stopped processing and its view
		// dropped member 0 — while its group 0 stays in step.
		newFakeNode(t, mkStatus(2, 10, []bool{false, true, true})),
	}
	r := collect(t, Config{Nodes: addrs(fakes)})
	if r.Healthy {
		t.Fatal("per-group divergence went undetected")
	}
	var sawView, sawSkew bool
	for _, p := range r.Problems {
		if p.Group == nil {
			t.Fatalf("whole-node problem fired on a per-group fault: %+v", p)
		}
		if *p.Group != 1 {
			t.Fatalf("problem against healthy group %d: %+v", *p.Group, p)
		}
		if !strings.Contains(p.Detail, "group 1") {
			t.Fatalf("detail does not name the group: %q", p.Detail)
		}
		switch p.Kind {
		case "view-divergence":
			sawView = true
		case "progress-skew":
			sawSkew = true
		}
	}
	if !sawView || !sawSkew {
		t.Fatalf("want per-group view-divergence and progress-skew, got %v", problemKinds(r))
	}
	if r.ViewsAgree {
		t.Fatal("per-group view divergence must clear ViewsAgree")
	}

	// The Problem JSON carries the group field.
	raw, _ := json.Marshal(r.Problems[0])
	if !strings.Contains(string(raw), `"group":1`) {
		t.Fatalf("problem JSON lacks group: %s", raw)
	}

	// All groups in step: no problems.
	healthy := collect(t, Config{Nodes: addrs([]*fakeNode{
		newFakeNode(t, mkStatus(0, 200, nil)),
		newFakeNode(t, mkStatus(1, 200, nil)),
		newFakeNode(t, mkStatus(2, 200, nil)),
	})})
	if !healthy.Healthy {
		t.Fatalf("healthy multi-group cluster flagged: %v", problemKinds(healthy))
	}
}
