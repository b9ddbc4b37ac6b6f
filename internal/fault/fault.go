// Package fault implements the general omission failure model of Section 3
// of the paper: a process fails either by crashing (fail stop) or by
// omitting to send or receive a subset of the messages the protocol
// requires. Subnetwork packet loss is modelled as an omission attributed to
// the link, which the protocol cannot distinguish from process omissions —
// exactly the property urcgc exploits to stay transport-agnostic.
//
// The one algebra serves both drivers. Time is an abstract elapsed count in
// the driver's unit: the simulated network (internal/simnet) consults
// injectors in simulator ticks, the live runtime's wall-clock front
// (internal/faultrt's Hook) in nanoseconds since the run started. Every
// consultation of a packet returns an Action — drop, delay, extra copies —
// and each driver honours all of it.
//
// Injectors are deterministic given their construction parameters (and
// seed, where randomized) and the sequence of consultations: replaying the
// same consultation sequence against an injector built from the same
// parameters yields the identical verdict sequence.
//
// Scoping contract: During and OnlyProc scope their inner injector's
// world. Outside the window, or for other processes' packets, the inner
// injector is not consulted at all, so a counter-based inner like EveryNth
// counts in-scope packets only — During{EveryNth{N}} means "every Nth
// packet of the window", not "the window's share of a run-long cadence".
// Multi is the deliberate opposite: it consults every member on every
// packet, so sibling counters advance consistently regardless of
// composition order. The experiments (Figure 6, the ablations) depend on
// window-scoped counting; regression tests pin both halves.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"urcgc/internal/mid"
)

// Time is elapsed time in the driver's unit: simulator ticks or wall-clock
// nanoseconds.
type Time int64

// Kind classifies an injected fault for counters, traces and captures.
// The values are part of the URCGCCAP capture format: never renumber them.
type Kind uint8

// Fault kinds.
const (
	KindDrop      Kind = iota // omission: the packet is destroyed
	KindDelay                 // the packet is held back (reordering when jittered)
	KindDuplicate             // extra copies of the packet are delivered
	KindPartition             // omission charged to a network cut
	KindCrash                 // fail-stop of a whole process
	NumKinds                  // how many kinds there are
)

var kindNames = [NumKinds]string{"drop", "delay", "duplicate", "partition", "crash"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindSet is a bitmask of fault kinds.
type KindSet uint8

// Has reports whether the set contains k.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// With returns the set extended with k.
func (s KindSet) With(k Kind) KindSet { return s | 1<<k }

// String renders the set as "drop+delay".
func (s KindSet) String() string {
	if s == 0 {
		return "none"
	}
	var parts []string
	for k := Kind(0); k < NumKinds; k++ {
		if s.Has(k) {
			parts = append(parts, k.String())
		}
	}
	return strings.Join(parts, "+")
}

// Action is an injector's verdict on one packet. The zero Action lets the
// packet pass untouched.
type Action struct {
	// Drop destroys the packet (an omission).
	Drop bool
	// Delay holds the packet back before handing it on, in the driver's
	// time unit. Combined with jitter (see DelayEvery) later packets
	// overtake it — reordering, which the paper's omission model does not
	// distinguish from loss-plus-recovery.
	Delay Time
	// Dup is how many extra copies to deliver beyond the original.
	Dup int
	// Kinds names the fault kinds that produced this verdict.
	Kinds KindSet
}

// Faulty reports whether the action does anything at all.
func (a Action) Faulty() bool { return a.Drop || a.Delay > 0 || a.Dup > 0 }

// merge folds another verdict in (Multi semantics): any drop wins, the
// longest delay wins, duplicates accumulate, kinds union.
func (a *Action) merge(b Action) {
	a.Drop = a.Drop || b.Drop
	a.Delay = max(a.Delay, b.Delay)
	a.Dup += b.Dup
	a.Kinds |= b.Kinds
}

func dropped(k Kind) Action { return Action{Drop: true, Kinds: KindSet(0).With(k)} }

// Side names the boundary a packet is consulted at. The protocol cannot
// distinguish the two, but the drivers' hooks differ: send faults happen
// before the wire, receive faults after it.
type Side int

// Packet boundaries.
const (
	AtSend Side = iota // sender-side or subnet loss before the wire
	AtRecv             // receiver-side loss (e.g. buffer overflow)
)

// proc returns the process whose boundary side is for a packet src->dst:
// the sender at AtSend, the receiver at AtRecv.
func (side Side) proc(src, dst mid.ProcID) mid.ProcID {
	if side == AtSend {
		return src
	}
	return dst
}

// Injector decides which failures occur. A driver consults Packet at AtSend
// for every packet about to leave src for dst, at AtRecv for every packet
// about to be handed to dst's protocol entity, and Crashed to fail-stop
// whole processes. now is the elapsed time on the driver's clock.
//
// Implementations need not be goroutine-safe: the simulator is single
// threaded and faultrt's Hook serializes live consultations.
type Injector interface {
	// Crashed reports whether process p has fail-stopped by time now.
	Crashed(p mid.ProcID, now Time) bool
	// Packet returns the verdict for a packet src->dst at boundary side:
	// a send omission at src or loss in the subnet (AtSend), a receive
	// omission at dst (AtRecv).
	Packet(side Side, src, dst mid.ProcID, now Time) Action
}

// noCrash supplies Crashed for the injectors that never fail-stop anyone.
type noCrash struct{}

// Crashed implements Injector.
func (noCrash) Crashed(mid.ProcID, Time) bool { return false }

// None is the reliable system: no failures at all.
type None struct{ noCrash }

// Packet implements Injector.
func (None) Packet(Side, mid.ProcID, mid.ProcID, Time) Action { return Action{} }

// Crash fail-stops one process at a fixed time. From At onwards the process
// neither sends nor receives, permanently.
type Crash struct {
	Proc mid.ProcID
	At   Time
}

// Crashed implements Injector.
func (c Crash) Crashed(p mid.ProcID, now Time) bool { return p == c.Proc && now >= c.At }

// Packet implements Injector: a crashed sender emits nothing, a crashed
// receiver absorbs nothing.
func (c Crash) Packet(side Side, src, dst mid.ProcID, now Time) Action {
	return crashVerdict(c.Crashed(side.proc(src, dst), now))
}

func crashVerdict(crashed bool) Action {
	if crashed {
		return dropped(KindCrash)
	}
	return Action{}
}

// CrashWindow fail-stops one process for a bounded interval [At, Until):
// inside the window the process neither sends nor receives; at Until the
// site is back up — the model for a kill-and-restart experiment, where the
// new incarnation re-enters the group through the join protocol. (Crash
// knowledge already spread through decisions does not evaporate: the
// restarted process is re-admitted by a coordinator, not by the injector.)
type CrashWindow struct {
	Proc  mid.ProcID
	At    Time
	Until Time
}

// Crashed implements Injector.
func (c CrashWindow) Crashed(p mid.ProcID, now Time) bool {
	return p == c.Proc && now >= c.At && now < c.Until
}

// Packet implements Injector: a down process neither sends nor receives.
func (c CrashWindow) Packet(side Side, src, dst mid.ProcID, now Time) Action {
	return crashVerdict(c.Crashed(side.proc(src, dst), now))
}

// nth counts the packets consulted on side want in *seen and reports
// whether this one is an n-th; n <= 0 never fires.
func nth(n int, want, side Side, seen *int) bool {
	if side != want || n <= 0 {
		return false
	}
	*seen++
	return *seen%n == 0
}

// EveryNth drops every N-th packet it is consulted about on its side,
// counting globally. This is the deterministic reading of the paper's "one
// omission failure each 500 messages" (the 1/500 and 1/100 curves of
// Figure 4). With Side selecting where the omission occurs it covers send
// omissions, receive omissions, and subnet loss, which all look identical
// to the protocol. N <= 0 disables it.
type EveryNth struct {
	N    int
	Side Side
	seen int
	noCrash
}

// Packet implements Injector.
func (e *EveryNth) Packet(side Side, _, _ mid.ProcID, _ Time) Action {
	if !nth(e.N, e.Side, side, &e.seen) {
		return Action{}
	}
	return dropped(KindDrop)
}

// Rate drops packets independently with probability P, using its own seeded
// RNG so different injectors do not perturb each other's streams.
type Rate struct {
	P    float64
	Side Side
	rng  *rand.Rand
	noCrash
}

// NewRate returns a probabilistic omission injector with the given drop
// probability, side and seed.
func NewRate(p float64, side Side, seed int64) *Rate {
	return &Rate{P: p, Side: side, rng: rand.New(rand.NewSource(seed))}
}

// Packet implements Injector.
func (r *Rate) Packet(side Side, _, _ mid.ProcID, _ Time) Action {
	if side == r.Side && r.rng.Float64() < r.P {
		return dropped(KindDrop)
	}
	return Action{}
}

// DelayEvery holds back every N-th packet on its side by D plus a seeded
// jitter in [0, Jitter). With nonzero jitter, delayed packets are overtaken
// by later ones: this is how reordering is injected — the protocol, built
// on the omission model, must treat an overtaken packet exactly like a
// late retransmission.
type DelayEvery struct {
	N      int
	D      Time
	Jitter Time
	Side   Side
	rng    *rand.Rand
	seen   int
	noCrash
}

// NewDelayEvery returns a deterministic delay/reorder injector.
func NewDelayEvery(n int, d, jitter Time, side Side, seed int64) *DelayEvery {
	return &DelayEvery{N: n, D: d, Jitter: jitter, Side: side, rng: rand.New(rand.NewSource(seed))}
}

// Packet implements Injector.
func (d *DelayEvery) Packet(side Side, _, _ mid.ProcID, _ Time) Action {
	if !nth(d.N, d.Side, side, &d.seen) {
		return Action{}
	}
	delay := d.D
	if d.Jitter > 0 && d.rng != nil {
		delay += Time(d.rng.Int63n(int64(d.Jitter)))
	}
	if delay <= 0 {
		return Action{}
	}
	return Action{Delay: delay, Kinds: KindSet(0).With(KindDelay)}
}

// DupEvery delivers Copies extra copies (at least one) of every N-th
// packet on its side. The protocol's duplicate detection (history sequence
// numbers) must absorb them silently.
type DupEvery struct {
	N      int
	Copies int
	Side   Side
	seen   int
	noCrash
}

// Packet implements Injector.
func (d *DupEvery) Packet(side Side, _, _ mid.ProcID, _ Time) Action {
	if !nth(d.N, d.Side, side, &d.seen) {
		return Action{}
	}
	return Action{Dup: max(d.Copies, 1), Kinds: KindSet(0).With(KindDuplicate)}
}

// Partition splits the group into two sides for a time window: packets
// crossing the cut are dropped at the send boundary in both directions;
// traffic within a side flows normally. Crashes are unaffected. Heal by
// letting the window end. A cut shorter than the K detection window is
// just a burst of omissions; a longer one triggers the paper's split-brain
// behaviour — each side excludes the other.
type Partition struct {
	From, To Time
	// SideA holds the processes of one side; everyone else is on the other.
	SideA map[mid.ProcID]bool
	noCrash
}

// Packet implements Injector.
func (p Partition) Packet(side Side, src, dst mid.ProcID, now Time) Action {
	if side != AtSend || now < p.From || now >= p.To || p.SideA[src] == p.SideA[dst] {
		return Action{}
	}
	return dropped(KindPartition)
}

// During confines an inner injector's packet faults to the window
// [From, To). Crashes are not windowed — a crash inside the window is still
// permanent — matching Figure 6's "failures are considered to occur during
// the first 5 rtd". Outside the window the inner injector is not consulted
// (see the package's scoping contract).
type During struct {
	From, To Time
	Inner    Injector
}

// Crashed implements Injector.
func (d During) Crashed(p mid.ProcID, now Time) bool { return d.Inner.Crashed(p, now) }

// Packet implements Injector.
func (d During) Packet(side Side, src, dst mid.ProcID, now Time) Action {
	if now < d.From || now >= d.To {
		return Action{}
	}
	return d.Inner.Packet(side, src, dst, now)
}

// OnlyProc restricts an inner injector's packet faults to packets sent by
// (at the send boundary) or addressed to (at the receive boundary) one
// process, modelling a single faulty process under the general omission
// model. Other processes' packets never reach the inner injector (see the
// package's scoping contract).
type OnlyProc struct {
	Proc  mid.ProcID
	Inner Injector
}

// Crashed implements Injector.
func (o OnlyProc) Crashed(p mid.ProcID, now Time) bool { return o.Inner.Crashed(p, now) }

// Packet implements Injector.
func (o OnlyProc) Packet(side Side, src, dst mid.ProcID, now Time) Action {
	if side.proc(src, dst) != o.Proc {
		return Action{}
	}
	return o.Inner.Packet(side, src, dst, now)
}

// Multi composes injectors: a process is crashed if any member says so,
// and packet verdicts merge (any drop wins, the longest delay wins,
// duplicates accumulate). Every member is consulted on every packet — even
// after an earlier member already dropped it — so counter- and rng-based
// members advance identically however the composition is ordered.
type Multi []Injector

// Crashed implements Injector.
func (m Multi) Crashed(p mid.ProcID, now Time) bool {
	crashed := false
	for _, in := range m {
		if in.Crashed(p, now) {
			crashed = true
		}
	}
	return crashed
}

// Packet implements Injector.
func (m Multi) Packet(side Side, src, dst mid.ProcID, now Time) Action {
	var act Action
	for _, in := range m {
		act.merge(in.Packet(side, src, dst, now))
	}
	return act
}

// Crashes builds one Crash injector per entry of schedule, mapping process
// to crash time, in ascending ProcID order so rng-bearing compositions
// replay identically.
func Crashes(schedule map[mid.ProcID]Time) Multi {
	procs := make([]mid.ProcID, 0, len(schedule))
	for p := range schedule {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	m := make(Multi, 0, len(procs))
	for _, p := range procs {
		m = append(m, Crash{Proc: p, At: schedule[p]})
	}
	return m
}
