package fault

import (
	"testing"

	"urcgc/internal/mid"
)

// counters are the counter-based atoms the scoping tests run through every
// combinator: each fires on the N-th consultation of its side, so one
// table pins the contract for all of them.
var counters = []struct {
	name  string
	make  func(n int, side Side) Injector
	fired func(Action) bool
}{
	{"EveryNth", func(n int, side Side) Injector { return &EveryNth{N: n, Side: side} },
		func(a Action) bool { return a.Drop && a.Kinds.Has(KindDrop) }},
	{"DelayEvery", func(n int, side Side) Injector { return NewDelayEvery(n, 10, 5, side, 1) },
		func(a Action) bool { return a.Delay >= 10 && a.Kinds.Has(KindDelay) }},
	{"DupEvery", func(n int, side Side) Injector { return &DupEvery{N: n, Side: side} },
		func(a Action) bool { return a.Dup == 1 && a.Kinds.Has(KindDuplicate) }},
}

// firings consults send-side verdicts for src->dst at each of the times
// and returns the 1-based positions that fired.
func firings(in Injector, fired func(Action) bool, src, dst mid.ProcID, times ...Time) []int {
	var out []int
	for i, now := range times {
		if fired(in.Packet(AtSend, src, dst, now)) {
			out = append(out, i+1)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func repeat(now Time, n int) []Time {
	out := make([]Time, n)
	for i := range out {
		out[i] = now
	}
	return out
}

func TestNone(t *testing.T) {
	var in None
	if in.Crashed(0, 100) || in.Packet(AtSend, 0, 1, 0).Faulty() || in.Packet(AtRecv, 0, 1, 0).Faulty() {
		t.Error("None must never fail anything")
	}
}

// TestCrash covers both fail-stop atoms: permanent from At, and bounded to
// [At, Until) for a restart.
func TestCrash(t *testing.T) {
	window := CrashWindow{Proc: 2, At: 100, Until: 200}
	cases := []struct {
		name    string
		in      Injector
		p       mid.ProcID
		now     Time
		crashed bool
	}{
		{"before At", Crash{Proc: 2, At: 100}, 2, 99, false},
		{"at At", Crash{Proc: 2, At: 100}, 2, 100, true},
		{"permanent", Crash{Proc: 2, At: 100}, 2, 1 << 40, true},
		{"other process", Crash{Proc: 2, At: 100}, 1, 5000, false},
		{"window before", window, 2, 99, false},
		{"window inside", window, 2, 150, true},
		{"window end restarts", window, 2, 200, false},
	}
	for _, c := range cases {
		if got := c.in.Crashed(c.p, c.now); got != c.crashed {
			t.Errorf("%s: Crashed = %v, want %v", c.name, got, c.crashed)
		}
		// A crashed sender emits nothing; a crashed receiver absorbs
		// nothing; packets to a crashed process still leave the sender.
		out, in := c.in.Packet(AtSend, c.p, 0, c.now), c.in.Packet(AtRecv, 0, c.p, c.now)
		if out.Drop != c.crashed || in.Drop != c.crashed {
			t.Errorf("%s: send drop %v, recv drop %v, want %v", c.name, out.Drop, in.Drop, c.crashed)
		}
		if c.crashed && (!out.Kinds.Has(KindCrash) || !in.Kinds.Has(KindCrash)) {
			t.Errorf("%s: crash drops must carry the crash kind: %v %v", c.name, out.Kinds, in.Kinds)
		}
		if c.in.Packet(AtSend, 0, c.p, c.now).Drop {
			t.Errorf("%s: a send to the crashed process must leave the sender", c.name)
		}
	}
}

func TestEveryNthSend(t *testing.T) {
	e := &EveryNth{N: 3, Side: AtSend}
	drops := firings(e, func(a Action) bool { return a.Drop && a.Kinds == KindSet(0).With(KindDrop) }, 0, 1, repeat(0, 9)...)
	if !equalInts(drops, []int{3, 6, 9}) {
		t.Errorf("drops = %v, want [3 6 9]", drops)
	}
	if e.Packet(AtRecv, 0, 1, 0).Faulty() {
		t.Error("send-side injector must not act at receive")
	}
}

func TestEveryNthRecv(t *testing.T) {
	e := &EveryNth{N: 2, Side: AtRecv}
	d1, d2 := e.Packet(AtRecv, 0, 1, 0).Drop, e.Packet(AtRecv, 0, 1, 0).Drop
	if d1 || !d2 {
		t.Errorf("drops = %v %v, want false true", d1, d2)
	}
	if e.Packet(AtSend, 0, 1, 0).Faulty() {
		t.Error("recv-side injector must not act at send")
	}
}

func TestEveryNthDisabled(t *testing.T) {
	for _, c := range counters {
		in := c.make(0, AtSend)
		for i := 0; i < 10; i++ {
			if in.Packet(AtSend, 0, 1, 0).Faulty() {
				t.Fatalf("%s: N=0 must never fire", c.name)
			}
		}
	}
}

func TestRateDeterministicPerSeed(t *testing.T) {
	run := func() []bool {
		r := NewRate(0.5, AtSend, 99)
		out := make([]bool, 100)
		for i := range out {
			out[i] = r.Packet(AtSend, 0, 1, 0).Drop
		}
		return out
	}
	a, b := run(), run()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same drops")
		}
		if a[i] {
			drops++
		}
	}
	if drops < 30 || drops > 70 {
		t.Errorf("0.5 rate produced %d/100 drops", drops)
	}
	if r := NewRate(0.5, AtSend, 1); r.Packet(AtRecv, 0, 1, 0).Faulty() {
		t.Error("send-side rate must not act at receive")
	}
}

// TestDelayEveryReordersDeterministically pins that two injectors built
// from the same seed hand out the identical verdict sequence, with every
// delay at least the base and jittered below base+Jitter.
func TestDelayEveryReordersDeterministically(t *testing.T) {
	const base, jitter = 1_000_000, 4_000_000
	mk := func() *DelayEvery { return NewDelayEvery(2, base, jitter, AtRecv, 42) }
	a, b := mk(), mk()
	distinct := map[Time]bool{}
	for i := 0; i < 50; i++ {
		av, bv := a.Packet(AtRecv, 0, 1, 0), b.Packet(AtRecv, 0, 1, 0)
		if av != bv {
			t.Fatalf("consult %d: %+v vs %+v", i, av, bv)
		}
		if i%2 == 0 {
			if av.Faulty() {
				t.Fatalf("consult %d: off-cadence fault %+v", i, av)
			}
			continue
		}
		if av.Delay < base || av.Delay >= base+jitter || av.Kinds != KindSet(0).With(KindDelay) {
			t.Fatalf("consult %d: %+v outside [base, base+jitter) or wrong kinds", i, av)
		}
		distinct[av.Delay] = true
	}
	if len(distinct) < 2 {
		t.Error("jitter never varied the delay: nothing would be reordered")
	}
	if a.Packet(AtSend, 0, 1, 0).Faulty() {
		t.Error("recv-side injector must not act at send")
	}
}

func TestDupEvery(t *testing.T) {
	d := &DupEvery{N: 2, Copies: 3, Side: AtSend}
	if d.Packet(AtSend, 0, 1, 0).Faulty() {
		t.Error("first packet must pass")
	}
	if act := d.Packet(AtSend, 0, 1, 0); act.Dup != 3 || act.Drop || act.Kinds != KindSet(0).With(KindDuplicate) {
		t.Errorf("second packet: %+v", act)
	}
	if act := (&DupEvery{N: 1, Side: AtRecv}).Packet(AtRecv, 0, 1, 0); act.Dup != 1 {
		t.Errorf("Copies 0 must still deliver one extra copy: %+v", act)
	}
}

func TestDuringWindowsOmissionsNotCrashes(t *testing.T) {
	d := During{From: 100, To: 200, Inner: Multi{
		&EveryNth{N: 1, Side: AtSend}, // drops everything it is asked about
		Crash{Proc: 1, At: 50},
	}}
	if d.Packet(AtSend, 0, 2, 99).Drop {
		t.Error("before window")
	}
	if !d.Packet(AtSend, 0, 2, 150).Drop {
		t.Error("inside window")
	}
	if d.Packet(AtSend, 0, 2, 200).Drop {
		t.Error("omission at the window end must not fire")
	}
	if !d.Crashed(1, 300) {
		t.Error("crash must not be windowed")
	}
}

func TestOnlyProc(t *testing.T) {
	o := OnlyProc{Proc: 1, Inner: &EveryNth{N: 1, Side: AtSend}}
	if o.Packet(AtSend, 0, 1, 0).Drop {
		t.Error("other senders unaffected")
	}
	if !o.Packet(AtSend, 1, 0, 0).Drop {
		t.Error("target sender drops")
	}
	o2 := OnlyProc{Proc: 1, Inner: &EveryNth{N: 1, Side: AtRecv}}
	if o2.Packet(AtRecv, 0, 2, 0).Drop {
		t.Error("other receivers unaffected")
	}
	if !o2.Packet(AtRecv, 0, 1, 0).Drop {
		t.Error("target receiver drops")
	}
	if !(OnlyProc{Proc: 1, Inner: Crash{Proc: 2}}).Crashed(2, 0) {
		t.Error("crashes pass through the filter")
	}
}

func TestMultiComposition(t *testing.T) {
	m := Multi{
		Crash{Proc: 0, At: 10},
		&EveryNth{N: 2, Side: AtSend},
	}
	if !m.Crashed(0, 10) || m.Crashed(1, 10) {
		t.Error("Crashed composition wrong")
	}
	// First consult: counter 1, no drop. Second: counter 2, drop.
	if m.Packet(AtSend, 1, 2, 0).Drop {
		t.Error("first packet survives")
	}
	if !m.Packet(AtSend, 1, 2, 0).Drop {
		t.Error("second packet dropped by EveryNth")
	}
	// Crashed sender drops regardless of counter.
	if act := m.Packet(AtSend, 0, 1, 10); !act.Drop || !act.Kinds.Has(KindCrash) {
		t.Errorf("crashed sender must drop: %+v", act)
	}
}

func TestCrashesBuilder(t *testing.T) {
	m := Crashes(map[mid.ProcID]Time{3: 100, 1: 50})
	if len(m) != 2 {
		t.Fatalf("len = %d", len(m))
	}
	if !m.Crashed(1, 50) || !m.Crashed(3, 100) || m.Crashed(2, 1000) {
		t.Error("schedule not honoured")
	}
}

func TestPartition(t *testing.T) {
	p := Partition{From: 100, To: 200, SideA: map[mid.ProcID]bool{0: true, 1: true}}
	cases := []struct {
		src, dst mid.ProcID
		now      Time
		drop     bool
	}{
		{0, 1, 150, false}, // same side flows
		{2, 3, 150, false}, // both on the other side flows
		{0, 2, 150, true},  // the cut drops A -> B
		{2, 1, 150, true},  // ... and B -> A
		{0, 2, 99, false},  // nothing before From
		{0, 2, 100, true},
		{0, 2, 200, false}, // heals at To
	}
	for _, c := range cases {
		act := p.Packet(AtSend, c.src, c.dst, c.now)
		if act.Drop != c.drop {
			t.Errorf("%d->%d at %d: drop %v, want %v", c.src, c.dst, c.now, act.Drop, c.drop)
		}
		if c.drop && act.Kinds != KindSet(0).With(KindPartition) {
			t.Errorf("%d->%d at %d: kinds %v, want partition", c.src, c.dst, c.now, act.Kinds)
		}
	}
	if p.Crashed(0, 150) || p.Packet(AtRecv, 0, 2, 150).Faulty() {
		t.Error("partition neither crashes nor acts at receive")
	}
}

// TestCrashesHighProcIDAndOrder is the regression test for the builder's
// old linear probe over ProcIDs 0..65535, which silently dropped any
// schedule entry at or above 1<<16: every entry must survive, in ascending
// ProcID order for rng reproducibility.
func TestCrashesHighProcIDAndOrder(t *testing.T) {
	m := Crashes(map[mid.ProcID]Time{
		1 << 20: 100, // above the old probe ceiling
		70000:   90,
		7:       50,
		1 << 16: 75, // exactly at the old ceiling
	})
	want := []mid.ProcID{7, 1 << 16, 70000, 1 << 20}
	if len(m) != len(want) {
		t.Fatalf("len = %d, want %d (high ProcIDs dropped)", len(m), len(want))
	}
	for i, in := range m {
		if c := in.(Crash); c.Proc != want[i] {
			t.Errorf("member %d = p%d, want p%d", i, c.Proc, want[i])
		}
	}
	if !m.Crashed(1<<20, 100) || !m.Crashed(1<<16, 75) || !m.Crashed(70000, 90) {
		t.Error("high ProcID crashes must be honoured")
	}
}

// TestDuringScopesInnerCounter pins the combinator scoping contract the
// experiment schedules depend on, for every counter-based atom: During
// does not consult its inner injector outside the window, so
// During{EveryNth{N}} fires on every Nth packet of the window —
// out-of-window traffic must not advance the counter.
func TestDuringScopesInnerCounter(t *testing.T) {
	for _, c := range counters {
		d := During{From: 100, To: 200, Inner: c.make(3, AtSend)}
		if got := firings(d, Action.Faulty, 0, 1, 0, 1, 2, 3, 4, 5, 99); len(got) != 0 {
			t.Errorf("%s: faults before the window at %v", c.name, got)
		}
		if got := firings(d, c.fired, 0, 1, repeat(150, 6)...); !equalInts(got, []int{3, 6}) {
			t.Errorf("%s: in-window firings = %v, want [3 6] (window-scoped counting)", c.name, got)
		}
		if got := firings(d, Action.Faulty, 0, 1, 200, 250); len(got) != 0 {
			t.Errorf("%s: faults after the window at %v", c.name, got)
		}
	}
}

// TestOnlyProcScopesInnerCounter pins the same contract for the process
// filter: other processes' packets never advance the inner counter.
func TestOnlyProcScopesInnerCounter(t *testing.T) {
	for _, c := range counters {
		o := OnlyProc{Proc: 1, Inner: c.make(2, AtSend)}
		if o.Packet(AtSend, 0, 2, 0).Faulty() || o.Packet(AtSend, 0, 2, 1).Faulty() || o.Packet(AtSend, 2, 0, 2).Faulty() {
			t.Fatalf("%s: other senders' packets must pass unconsulted", c.name)
		}
		if got := firings(o, c.fired, 1, 2, 3, 4); !equalInts(got, []int{2}) {
			t.Errorf("%s: proc 1's firings = %v, want [2]: the filter scopes the counter", c.name, got)
		}
	}
}

// TestMultiConsultsEveryMember pins Multi's opposite contract: every
// member sees every packet, so sibling counters advance in lockstep
// however the composition is ordered, and their verdicts merge — any drop
// wins, the longest delay wins, duplicates accumulate, kinds union.
func TestMultiConsultsEveryMember(t *testing.T) {
	m := Multi{
		&EveryNth{N: 2, Side: AtSend},
		&EveryNth{N: 2, Side: AtSend},
		&DupEvery{N: 2, Copies: 1, Side: AtSend},
		&DupEvery{N: 2, Copies: 2, Side: AtSend},
		NewDelayEvery(2, 7, 0, AtSend, 1),
		NewDelayEvery(2, 9, 0, AtSend, 1),
	}
	want := Action{Drop: true, Delay: 9, Dup: 3,
		Kinds: KindSet(0).With(KindDrop).With(KindDelay).With(KindDuplicate)}
	for i := 1; i <= 4; i++ {
		act := m.Packet(AtSend, 0, 1, Time(i))
		if i%2 == 1 && act.Faulty() {
			t.Fatalf("packet %d faulted: %+v", i, act)
		}
		// A short-circuit after the first drop would leave the later
		// counters one behind, and the fourth packet would not merge.
		if i%2 == 0 && act != want {
			t.Fatalf("packet %d: %+v, want %+v", i, act, want)
		}
	}
}
