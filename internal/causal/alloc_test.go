package causal

import (
	"testing"

	"urcgc/internal/mid"
)

// The readiness checks run once or more per delivered message at every
// member, so they must not allocate. Each guard uses a non-first message
// with explicit labels, the case that used to build a dependency list.

func allocTracker(t *testing.T) (*Tracker, *Message) {
	t.Helper()
	tr := NewTracker(4)
	if err := tr.Install(mid.SeqVector{1, 10, 10, 10}); err != nil {
		t.Fatal(err)
	}
	return tr, msg(0, 2, mid.MID{Proc: 1, Seq: 10}, mid.MID{Proc: 3, Seq: 9}, mid.MID{Proc: 1, Seq: 4})
}

func TestReadinessAllocFree(t *testing.T) {
	tr, m := allocTracker(t)
	checks := map[string]func() bool{
		"Ready":          func() bool { return Ready(m, tr.Processed()) },
		"Tracker.Ready":  func() bool { return tr.Ready(m) },
		"Tracker.Doomed": func() bool { return !tr.Doomed(m) },
	}
	for name, ok := range checks {
		if !ok() {
			t.Fatalf("%s: wrong answer for %v %v", name, m.ID, m.Deps)
		}
		if got := testing.AllocsPerRun(200, func() { ok() }); got != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, got)
		}
	}
}

func TestProcessAllocFree(t *testing.T) {
	tr, m := allocTracker(t)
	m.ID.Seq = 1 // each run processes the next message of p0's sequence
	var err error
	got := testing.AllocsPerRun(200, func() {
		m.ID.Seq++
		if e := tr.Process(m); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("Tracker.Process allocates %.1f times per call, want 0", got)
	}
}
