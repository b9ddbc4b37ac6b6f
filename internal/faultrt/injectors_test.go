package faultrt

import (
	"testing"
	"time"

	"urcgc/internal/fault"
	"urcgc/internal/mid"
)

// These tests drive the fault algebra the way the live runtime does: through
// a Hook, with windows and crash times given as wall-clock durations. They
// pin that the hook maps its elapsed clock onto fault.Time one-to-one and
// dispatches Send and Recv to the right boundary.

// clocked wraps inj in a Hook whose elapsed clock is the returned variable.
func clocked(inj fault.Injector) (*Hook, *time.Duration) {
	h := NewHook(inj, nil)
	now := new(time.Duration)
	h.now = func() time.Duration { return *now }
	return h, now
}

// at converts a wall-clock offset to the algebra's clock.
func at(d time.Duration) fault.Time { return fault.Time(d) }

func TestNone(t *testing.T) {
	h, now := clocked(fault.None{})
	*now = time.Second
	if h.Crashed(0) {
		t.Error("None must never crash anyone")
	}
	if h.Send(0, 1).Faulty() || h.Recv(0, 1).Faulty() {
		t.Error("None must never fault a datagram")
	}
	if evs, _ := h.Trace(); len(evs) != 0 {
		t.Errorf("None recorded %d events", len(evs))
	}
}

func TestCrashAt(t *testing.T) {
	h, now := clocked(fault.Crash{Proc: 2, At: at(100 * time.Millisecond)})
	*now = 99 * time.Millisecond
	if h.Crashed(2) {
		t.Error("not crashed before At")
	}
	*now = 100 * time.Millisecond
	if !h.Crashed(2) {
		t.Error("crashed from At")
	}
	*now = time.Hour
	if !h.Crashed(2) {
		t.Error("crashed permanently")
	}
	if h.Crashed(1) {
		t.Error("other processes unaffected")
	}
	*now = time.Second
	if act := h.Send(2, 0); !act.Drop || !act.Kinds.Has(fault.KindCrash) {
		t.Errorf("crashed sender emits nothing: %+v", act)
	}
	if h.Send(0, 2).Drop {
		t.Error("sends to a crashed process still leave the sender")
	}
	if !h.Recv(0, 2).Drop {
		t.Error("crashed receiver absorbs nothing")
	}
}

func TestDropEverySchedule(t *testing.T) {
	h, _ := clocked(&fault.EveryNth{N: 3, Side: fault.AtSend})
	var drops []int
	for i := 1; i <= 9; i++ {
		if act := h.Send(0, 1); act.Drop {
			if !act.Kinds.Has(fault.KindDrop) {
				t.Errorf("datagram %d: kinds %v", i, act.Kinds)
			}
			drops = append(drops, i)
		}
	}
	if len(drops) != 3 || drops[0] != 3 || drops[1] != 6 || drops[2] != 9 {
		t.Errorf("drops = %v, want [3 6 9]", drops)
	}
	if h.Recv(0, 1).Faulty() {
		t.Error("send-side injector must not act at receive")
	}
}

func TestPartitionCutsBothWaysAndHeals(t *testing.T) {
	h, now := clocked(fault.Partition{From: at(time.Second), To: at(2 * time.Second),
		SideA: map[mid.ProcID]bool{0: true, 1: true}})
	*now = 500 * time.Millisecond
	if h.Send(0, 2).Drop {
		t.Error("no cut before From")
	}
	*now = time.Second
	if !h.Send(0, 2).Drop || !h.Send(2, 0).Drop {
		t.Error("cut must drop both directions")
	}
	if h.Send(0, 1).Drop || h.Send(2, 3).Drop {
		t.Error("intra-side traffic must flow")
	}
	if h.Recv(0, 2).Faulty() {
		t.Error("the cut acts at the send boundary only")
	}
	*now = 1500 * time.Millisecond
	if !h.Send(0, 2).Kinds.Has(fault.KindPartition) {
		t.Error("cut drops must carry the partition kind")
	}
	*now = 2 * time.Second
	if h.Send(0, 2).Drop {
		t.Error("cut must heal at To")
	}
}

// TestDuringScopesInnerCounting pins the combinator scoping contract on the
// wall clock: During does not consult its inner injector outside the
// window, so a counter-based inner injector counts in-window datagrams only.
func TestDuringScopesInnerCounting(t *testing.T) {
	h, now := clocked(fault.During{From: at(10 * time.Millisecond), To: at(20 * time.Millisecond),
		Inner: &fault.EveryNth{N: 3, Side: fault.AtSend}})
	// 5 out-of-window consultations must not advance the inner counter.
	for i := 0; i < 5; i++ {
		if h.Send(0, 1).Faulty() {
			t.Fatal("no faults before the window")
		}
	}
	*now = 15 * time.Millisecond
	var drops []int
	for i := 1; i <= 6; i++ {
		if h.Send(0, 1).Drop {
			drops = append(drops, i)
		}
	}
	if len(drops) != 2 || drops[0] != 3 || drops[1] != 6 {
		t.Errorf("in-window drops = %v, want [3 6] (window-scoped counting)", drops)
	}
	*now = 25 * time.Millisecond
	if h.Send(0, 1).Faulty() {
		t.Error("no faults after the window")
	}
}

func TestOnlyProcScopesInnerCounting(t *testing.T) {
	h, _ := clocked(fault.OnlyProc{Proc: 1, Inner: &fault.EveryNth{N: 2, Side: fault.AtSend}})
	if h.Send(0, 2).Faulty() || h.Send(0, 2).Faulty() {
		t.Fatal("other senders' datagrams must pass unconsulted")
	}
	if h.Send(1, 2).Drop {
		t.Fatal("proc 1's first datagram must pass")
	}
	if !h.Send(1, 2).Drop {
		t.Error("proc 1's second datagram must drop: other procs' traffic must not advance the counter")
	}
}

func TestMultiConsultsEveryMemberAndMerges(t *testing.T) {
	h, _ := clocked(fault.Multi{
		&fault.EveryNth{N: 2, Side: fault.AtSend},
		&fault.DupEvery{N: 2, Copies: 1, Side: fault.AtSend},
	})
	if first := h.Send(0, 1); first.Faulty() {
		t.Fatalf("first datagram faulted: %+v", first)
	}
	second := h.Send(0, 1)
	if !second.Drop || second.Dup != 1 {
		t.Fatalf("second datagram must merge drop+dup: %+v", second)
	}
	if !second.Kinds.Has(fault.KindDrop) || !second.Kinds.Has(fault.KindDuplicate) {
		t.Errorf("kinds = %v", second.Kinds)
	}
	if evs, _ := h.Trace(); len(evs) != 1 || evs[0].Kinds != second.Kinds {
		t.Errorf("trace = %v, want one event carrying the merged kinds", evs)
	}
}

func TestCrashesDeterministicOrderWithHighProcID(t *testing.T) {
	m := fault.Crashes(map[mid.ProcID]fault.Time{
		70000: at(time.Second), // above 1<<16: the sim-side bug this mirrors
		3:     at(2 * time.Second),
		1:     at(3 * time.Second),
	})
	if len(m) != 3 {
		t.Fatalf("len = %d, want 3", len(m))
	}
	want := []mid.ProcID{1, 3, 70000}
	for i, in := range m {
		if c := in.(fault.Crash); c.Proc != want[i] {
			t.Errorf("member %d = p%d, want p%d", i, c.Proc, want[i])
		}
	}
	h, now := clocked(m)
	*now = time.Second
	if !h.Crashed(70000) {
		t.Error("high ProcID crash must be honored")
	}
	if h.Crashed(3) || h.Crashed(1) {
		t.Error("later crashes must not fire early")
	}
	*now = 3 * time.Second
	h.Crashed(1)
	h.Crashed(3)
	if got := h.TraceString(); got != "0 crash p70000\n1 crash p1\n2 crash p3\n" {
		t.Errorf("trace = %q", got)
	}
}
