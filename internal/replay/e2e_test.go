package replay

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/chaos"
	"urcgc/internal/fault"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
)

// verdictKey canonicalizes one violation for cross-run comparison.
func verdictKey(invariant string, node int32, m string) string {
	return invariant + "|" + string(rune('0'+node)) + "|" + m
}

// TestEndToEndPartitionForensics is the acceptance path of the capture
// subsystem, end to end: a seeded chaos soak with an extra permanent
// partition isolates one member mid-run, so the live checker reports
// uniform-atomicity violations; the run dumps every member's capture to
// disk, the dumps are decoded back, and the offline replay must reproduce
// the live verdict exactly — and blame a partition-destroyed frame.
func TestEndToEndPartitionForensics(t *testing.T) {
	const (
		seed  = 11
		n     = 5
		k     = 4
		round = 2 * time.Millisecond
		dur   = 1200 * time.Millisecond
	)
	// Isolate a member the background schedule does not crash, from
	// mid-run to forever: its frontier freezes while the rest advance,
	// which survivors' audits must flag in both directions.
	sched := faultrt.NewSchedule(seed, n, dur, round, k)
	victim := (sched.CrashProc + 1) % n
	cut := fault.Partition{
		From:  fault.Time(dur / 3),
		To:    fault.Time(time.Hour),
		SideA: map[mid.ProcID]bool{victim: true},
	}

	rep, err := chaos.Run(context.Background(), chaos.Config{
		Seed: seed, N: n, K: k, Round: round,
		Duration:      dur,
		Settle:        300 * time.Millisecond,
		CaptureFrames: 1 << 15,
		Inject:        cut,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatalf("permanent partition of p%d produced no live violations", victim)
	}
	t.Logf("live verdict: %d violations, survivors %v", len(rep.Violations), rep.Survivors)

	// Dump the evidence and read it back through the decoder — the test
	// exercises the same artifact path an operator uses.
	dir := t.TempDir()
	paths, err := rep.DumpCaptures(dir)
	if err != nil || len(paths) != n {
		t.Fatalf("dumped %d captures (err %v), want %d", len(paths), err, n)
	}
	var dumps []*capture.Dump
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		d, err := capture.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("decoding %s: %v", filepath.Base(p), err)
		}
		dumps = append(dumps, d)
	}

	res, err := Run(dumps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean || len(res.Groups) != 1 {
		t.Fatalf("offline replay missed the breach: %+v", res)
	}
	g := res.Groups[0]
	t.Logf("replay verdict: %d findings, survivors %v, fed %d (+%d self)",
		len(g.Findings), g.Survivors, g.Fed, g.SelfFed)

	// The offline verdict must equal the live one: same survivors, same
	// violation set.
	liveSurv := make([]int32, 0, len(rep.Survivors))
	for _, p := range rep.Survivors {
		liveSurv = append(liveSurv, int32(p))
	}
	sort.Slice(liveSurv, func(i, j int) bool { return liveSurv[i] < liveSurv[j] })
	if len(liveSurv) != len(g.Survivors) {
		t.Fatalf("survivors: live %v, replay %v", liveSurv, g.Survivors)
	}
	for i := range liveSurv {
		if liveSurv[i] != g.Survivors[i] {
			t.Fatalf("survivors: live %v, replay %v", liveSurv, g.Survivors)
		}
	}
	live := map[string]bool{}
	for _, v := range rep.Violations {
		live[verdictKey(v.Invariant, int32(v.Node), v.Msg.String())] = true
	}
	offline := map[string]bool{}
	for _, f := range g.Findings {
		offline[verdictKey(f.Invariant, f.Node, f.MID)] = true
	}
	for key := range live {
		if !offline[key] {
			t.Errorf("live violation not reproduced offline: %s", key)
		}
	}
	for key := range offline {
		if !live[key] {
			t.Errorf("replay invented a violation the live run never saw: %s", key)
		}
	}

	// Forensics: the replay must name a blocking frame, and the partition
	// that caused the breach must appear in the blame.
	if res.First == nil {
		t.Fatal("no blocking frame attributed")
	}
	t.Logf("first blocking frame: node %d capture #%d %s %s (%s): %s",
		res.First.Node, res.First.Seq, res.First.Dir, res.First.Verdict,
		res.First.Fault, res.First.Reason)
	partitionBlamed := false
	for _, f := range g.Findings {
		if f.Blocking != nil && strings.Contains(f.Blocking.Fault, "partition") {
			partitionBlamed = true
			if len(f.Blocking.Frame.MIDs) == 0 {
				t.Errorf("partition-blamed frame carries no MIDs: %+v", f.Blocking)
			}
			break
		}
	}
	if !partitionBlamed {
		t.Error("no finding blames a partition-destroyed frame")
	}
}
