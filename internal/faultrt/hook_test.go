package faultrt

import (
	"strings"
	"testing"
	"time"

	"urcgc/internal/fault"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// replay drives an injector with a fixed synthetic consultation sequence
// through a Hook on a deterministic clock and returns the trace.
func replay(t *testing.T, inj fault.Injector, reg *obs.Registry) string {
	t.Helper()
	h := NewHook(inj, reg)
	var now time.Duration
	h.now = func() time.Duration { return now }
	const n = 4
	for step := 0; step < 2000; step++ {
		now = time.Duration(step) * time.Millisecond
		for src := mid.ProcID(0); src < n; src++ {
			h.Crashed(src)
			for dst := mid.ProcID(0); dst < n; dst++ {
				if dst == src {
					continue
				}
				h.Send(src, dst)
				h.Recv(src, dst)
			}
		}
	}
	return h.TraceString()
}

// TestHookTraceDeterministic is the determinism guarantee: the same seed
// and the same consultation schedule yield the identical injected-fault
// trace, byte for byte.
func TestHookTraceDeterministic(t *testing.T) {
	sched := func() *Schedule {
		return NewSchedule(7, 4, 2*time.Second, 2*time.Millisecond, 8)
	}
	t1 := replay(t, sched().Injector(), nil)
	t2 := replay(t, sched().Injector(), nil)
	if t1 != t2 {
		t.Fatalf("traces differ under identical seed+schedule:\n--- run 1 ---\n%.400s\n--- run 2 ---\n%.400s", t1, t2)
	}
	if t1 == "" {
		t.Fatal("the schedule injected nothing over 2000 steps")
	}
	if t3 := replay(t, NewSchedule(8, 4, 2*time.Second, 2*time.Millisecond, 8).Injector(), nil); t3 == t1 {
		t.Error("a different seed should produce a different trace")
	}
}

func TestScheduleStringDeterministic(t *testing.T) {
	a := NewSchedule(99, 5, time.Minute, 2*time.Millisecond, 8)
	b := NewSchedule(99, 5, time.Minute, 2*time.Millisecond, 8)
	if a.String() != b.String() {
		t.Fatalf("same seed, different plans:\n%s\nvs\n%s", a, b)
	}
	if a.PartTo-a.PartFrom >= time.Duration(a.K)*2*a.Round+a.Round {
		t.Errorf("partition %v..%v not shorter than K subruns", a.PartFrom, a.PartTo)
	}
	if int(a.CrashProc) < 0 || int(a.CrashProc) >= 5 {
		t.Errorf("crash proc %d outside group", a.CrashProc)
	}
	sideA := 0
	for p, in := range a.PartSideA {
		if in {
			sideA++
		}
		if int(p) < 0 || int(p) >= 5 {
			t.Errorf("side-A member %d outside group", p)
		}
	}
	if sideA == 0 || sideA >= 5 {
		t.Errorf("degenerate partition side of %d", sideA)
	}
}

func TestHookCountsKindsAndBlames(t *testing.T) {
	reg := obs.New()
	h := NewHook(fault.Multi{
		fault.Crash{Proc: 1, At: 0},
		&fault.DupEvery{N: 1, Copies: 1, Side: fault.AtSend},
	}, reg)
	if !h.Crashed(1) {
		t.Fatal("p1 must be crashed")
	}
	h.Crashed(1) // second observation must not double-count
	act := h.Send(0, 2)
	if act.Dup != 1 {
		t.Fatalf("act = %+v", act)
	}
	inj := h.Injected()
	if inj["crash"] != 1 || inj["duplicate"] != 1 {
		t.Errorf("injected = %v", inj)
	}
	snap := reg.Snapshot()
	if snap[obs.Labeled("faultrt_injected_total", "kind", "crash")] != 1 {
		t.Errorf("crash counter not exported: %v", snap)
	}
	if b := h.Blame([]mid.MID{{Proc: 1, Seq: 4}}); b == "" {
		t.Error("blame for the crashed proc must not be empty")
	} else if !strings.Contains(b, "crashed") {
		t.Errorf("blame %q does not mention the crash", b)
	}
	if b := h.Blame([]mid.MID{{Proc: 3, Seq: 1}}); b != "" {
		t.Errorf("unblamed proc produced %q", b)
	}
}

func TestNilHookIsInert(t *testing.T) {
	var h *Hook
	if h.Crashed(0) || h.Send(0, 1).Faulty() || h.Recv(0, 1).Faulty() {
		t.Error("nil hook must inject nothing")
	}
	if h.Blame([]mid.MID{{Proc: 0, Seq: 1}}) != "" {
		t.Error("nil hook must not blame")
	}
	if evs, _ := h.Trace(); evs != nil {
		t.Error("nil hook has no trace")
	}
}
