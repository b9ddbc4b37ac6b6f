package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestSendStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	p := loadG8.gen
	a, b, c := newSendStream(42, p), newSendStream(42, p), newSendStream(43, p)
	differs := false
	for i := 0; i < 5000; i++ {
		x, y, z := a.Next(), b.Next(), c.Next()
		if x != y {
			t.Fatalf("send %d: same seed gave %+v and %+v", i, x, y)
		}
		differs = differs || x != z
	}
	if !differs {
		t.Fatal("seeds 42 and 43 gave the same schedule")
	}

	s1, s2 := newSyncSchedule(7, coreSync), newSyncSchedule(7, coreSync)
	for sub := 0; sub < 100; sub++ {
		for m := 0; m < coreSync.N; m++ {
			x, y := s1.Subrun(m), s2.Subrun(m)
			for k := range x {
				if x[k] != y[k] {
					t.Fatalf("subrun %d member %d send %d: %+v vs %+v", sub, m, k, x[k], y[k])
				}
			}
		}
	}
}

func TestPayloadCarriesItsIndexAndPattern(t *testing.T) {
	for _, size := range []int{0, 8, 64, 1024} {
		b := makePayload(12345, size)
		idx, ok := checkPayload(b, size)
		if !ok || idx != 12345 {
			t.Fatalf("size %d: got %d %v", size, idx, ok)
		}
		if size > payloadHeader {
			b[len(b)-1]++
			if _, ok := checkPayload(b, size); ok {
				t.Fatalf("size %d: corrupted payload accepted", size)
			}
		}
	}
}

func TestCoreSyncPassCountsRepeatForASeed(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two full passes")
	}
	// The second pass reuses the first's tables, as a run's passes do.
	tabs, err := newSyncTables(coreSync)
	if err != nil {
		t.Fatal(err)
	}
	defer tabs.mem.free()
	first, _, err := runSyncPass(coreSync, 3, tabs, true, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := runSyncPass(coreSync, 3, tabs, false, newSpanLog(time.Now()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Violations)+len(second.Violations) > 0 {
		t.Fatalf("audit: %v %v", first.Violations, second.Violations)
	}
	if first.HeapMB <= 0 {
		t.Fatalf("the heap-probing pass measured %v MB", first.HeapMB)
	}
	if first.syncCounts != second.syncCounts {
		t.Fatalf("same seed, different counts:\n%+v\n%+v", first.syncCounts, second.syncCounts)
	}
	c := first.syncCounts
	if c.DataBytes == 0 || c.CtlBytes == 0 || c.CtlFrames == 0 {
		t.Fatalf("no traffic counted: %+v", c)
	}
	if c.CrashDetectRounds <= 0 || c.StallRounds <= 0 {
		t.Fatalf("crash not detected or no progress seen: %+v", c)
	}
	if c.Dropped == 0 || c.Recoveries == 0 || c.Retransmits == 0 {
		t.Fatalf("drops did not exercise RECOVER/RETRANSMIT: %+v", c)
	}
	if c.Delivered != c.Submitted-c.Orphaned {
		t.Fatalf("delivered %d of %d submitted, %d orphaned", c.Delivered, c.Submitted, c.Orphaned)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		want  float64
		k     int
		q     float64
		valid bool
	}{
		{n: 1000, want: 0.99, k: 989, q: 0.99, valid: true},
		{n: 500, want: 0.99, k: 489, q: 0.98, valid: true},
		{n: 100, want: 0.50, k: 49, q: 0.50, valid: true},
		{n: 11, want: 0.99, k: 0, q: 1.0 / 11, valid: true},
		{n: 10, want: 0.50, valid: false},
	} {
		k, q, ok := tailRank(tc.n, tc.want)
		if ok != tc.valid || (ok && (k != tc.k || math.Abs(q-tc.q) > 1e-12)) {
			t.Errorf("tailRank(%d, %v) = %d, %v, %v; want %d, %v, %v", tc.n, tc.want, k, q, ok, tc.k, tc.q, tc.valid)
		}
		if ok && tc.n-1-k < minBeyond {
			t.Errorf("n=%d: only %d samples beyond", tc.n, tc.n-1-k)
		}
	}
	xs := make([]float64, 500)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	if v, q, ok := percentile(xs, 0.99); !ok || v != 490 || q != 0.98 {
		t.Fatalf("percentile = %v at q %v (%v), want 490 at 0.98", v, q, ok)
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},   // overlaps the first: counted once
		{Start: 90, End: 120},  // only its part inside the parent counts
		{Start: 150, End: 160}, // outside the parent
	}
	if got := selfTime(parent, children); got != 60 {
		t.Fatalf("self time %d, want 100 - 30 - 10 = 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %d, want 100", got)
	}

	// Nested recording: the aggregate subtracts each span's own children.
	l := &spanLog{}
	l.spans = []span{
		{Name: "core.Recv", Start: 0, End: 50, Parent: -1},
		{Name: "wire.Unmarshal", Start: 5, End: 15, Parent: 0},
		{Name: "wire.MarshalAppend", Start: 30, End: 35, Parent: 0},
	}
	tot := map[string]*spanTotals{}
	aggregate(l.spans, tot)
	if v, _ := meanSelf(tot, "core.Recv"); v != 35 {
		t.Fatalf("core.Recv self %v, want 35", v)
	}
	if v, _ := meanSelf(tot, "wire.Unmarshal"); v != 10 {
		t.Fatalf("wire.Unmarshal self %v, want 10", v)
	}
}

func TestSpanLogNestsCallsAndWritesThemOut(t *testing.T) {
	l := newSpanLog(time.Now())
	l.begin("core.Recv", 7)
	l.begin("wire.Unmarshal", 7)
	l.end("")
	l.end("core.Recv.data")
	if len(l.spans) != 2 || l.spans[1].Parent != 0 || l.spans[0].Name != "core.Recv.data" || l.spans[0].Parent != -1 {
		t.Fatalf("spans %+v", l.spans)
	}
	path, err := writeSpans(t.TempDir(), "s.jsonl", l.spans)
	if err != nil || filepath.Base(path) != "s.jsonl" {
		t.Fatalf("writeSpans: %q %v", path, err)
	}
}

const snmpSample = `Ip: Forwarding DefaultTTL InReceives
Ip: 1 64 100
Udp: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors InCsumErrors IgnoredMulti MemErrors
Udp: 768328 139 25088 793575 25088 0 0 0 0
UdpLite: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors InCsumErrors IgnoredMulti MemErrors
UdpLite: 0 0 0 0 0 0 0 0 0
`

func TestSNMPReaderReportsAbsenceNotZero(t *testing.T) {
	c, ok := parseSNMP(strings.NewReader(snmpSample))
	if !ok || c.RcvbufErrors != 25088 || c.OutDatagrams != 793575 {
		t.Fatalf("parsed %+v %v", c, ok)
	}
	if _, ok := parseSNMP(strings.NewReader("Udp: InDatagrams\nUdp: 5\n")); ok {
		t.Fatal("counters missing from the Udp line were reported as present")
	}
	if _, ok := readUDP(filepath.Join(t.TempDir(), "missing")); ok {
		t.Fatal("a missing file was reported as present")
	}
}

func TestResultLineMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end %v, the result line reports %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, the result line reports %v", got, perLayer)
	}
	for _, w := range names(spec.Workloads) {
		if _, ok := workloads[w]; !ok {
			t.Errorf("workload %q is not defined", w)
		}
	}
}

func TestMeshRunIsAuditedAndReportsEveryGatedMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live cluster")
	}
	w := meshG8
	w.gen.Rate, w.setups, w.warmup = 2000, 2, 200*time.Millisecond
	rep := newReport()
	out, err := runLive(w, runArgs{seed: 1, seconds: 1, trace: true, traceDir: t.TempDir()}, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.violations) > 0 || out.failed > 0 || out.attempted == 0 {
		t.Fatalf("attempted %d failed %d violations %v", out.attempted, out.failed, out.violations)
	}
	for _, n := range append(append([]string(nil), endToEnd...), perLayer...) {
		if _, ok := rep.metrics[n]; !ok {
			t.Errorf("metric %s not reported", n)
		}
	}
}
