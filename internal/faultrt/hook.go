// Package faultrt is the wall-clock front of internal/fault: it brings the
// paper's general omission failure model (Section 3) to the live runtime
// (internal/topics), where faults are injected at the transport boundary —
// the in-process mesh consults the Hook where a frame would cross member
// boundaries, the UDP runtime immediately before the socket write and after
// the datagram read — so every injected failure is indistinguishable, to
// the protocol, from a real network or process fault, and the protocol's
// history-based recovery, attempts counters and suicide rule do the repair.
//
// The injector algebra itself (Crash, EveryNth, DelayEvery, DupEvery,
// Partition, During, OnlyProc, Multi, ...) lives in internal/fault; this
// package adds what only a wall-clock run needs. The Hook serializes
// consultations from concurrent goroutines and stamps them with the elapsed
// run time in nanoseconds (fault.Time), so an Action's Delay is a
// time.Duration. Under real concurrency the consultation sequence varies
// run to run, so end-to-end determinism lives one level up, in the seeded
// Schedule (the planned faults are a pure function of the seed) and in the
// Hook's serialized trace. The Checker audits the paper's uniform
// invariants over the members' processing logs afterwards.
package faultrt

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"urcgc/internal/fault"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// Event is one injected fault, recorded by the Hook in consultation order.
type Event struct {
	Seq   int           // 0-based position in the hook's injected-fault trace
	At    time.Duration // elapsed run time of the consultation
	Op    string        // "send", "recv" or "crash"
	Src   mid.ProcID
	Dst   mid.ProcID // mid.None for crash events
	Kinds fault.KindSet
}

// String renders the event without its wall-clock offset, so traces from
// replayed consultation sequences compare byte-for-byte.
func (e Event) String() string {
	if e.Op == "crash" {
		return fmt.Sprintf("%d crash p%d", e.Seq, e.Src)
	}
	return fmt.Sprintf("%d %s %d->%d %s", e.Seq, e.Op, e.Src, e.Dst, e.Kinds)
}

// blameRec summarizes the faults charged against one process, so a stuck
// lifecycle span can name what is starving it.
type blameRec struct {
	drops, delays, dups int64
	crashedAt           time.Duration
	crashed             bool
	lastKinds           fault.KindSet
	lastAt              time.Duration
}

// Hook is the runtime-facing front of a fault.Injector: it serializes
// consultations (node goroutines consult concurrently), stamps them with
// the elapsed run clock, counts them per kind — exported as
// faultrt_injected_total{kind="..."} when a registry is given — records a
// bounded injected-fault trace, and keeps per-process blame summaries for
// the lifecycle watchdog. A nil *Hook is valid and injects nothing, so the
// runtime threads it without branching.
type Hook struct {
	// OnCrash, when non-nil, fires once per process on its first crashed
	// verdict, after the hook's lock is released — the chaos harness uses
	// it to put a crash mark on the member's capture ring, so an offline
	// replay can derive the survivor set from the dumps alone. Set it
	// before the hook is shared with the runtime.
	OnCrash func(p mid.ProcID, at time.Duration)

	mu  sync.Mutex
	inj fault.Injector

	// now returns the elapsed run time; defaults to wall clock since
	// NewHook. Tests substitute a deterministic clock.
	now   func() time.Duration
	start time.Time

	trace    []Event
	traceCap int
	dropped  int64 // trace events beyond traceCap
	injected [fault.NumKinds]int64
	counters [fault.NumKinds]*obs.Counter
	events   *obs.EventLog

	blame     map[mid.ProcID]*blameRec
	crashSeen map[mid.ProcID]bool
}

// defaultTraceCap bounds the retained injected-fault trace.
const defaultTraceCap = 8192

// NewHook wraps an injector for use by the runtime. reg, when non-nil,
// receives the per-kind counters (faultrt_injected_total{kind}) and its
// event log gets one line per injected fault, interleaving with the
// lifecycle watchdog's stuck-span flags. The elapsed clock starts now.
func NewHook(inj fault.Injector, reg *obs.Registry) *Hook {
	h := &Hook{
		inj:       inj,
		start:     time.Now(),
		traceCap:  defaultTraceCap,
		blame:     make(map[mid.ProcID]*blameRec),
		crashSeen: make(map[mid.ProcID]bool),
	}
	h.now = func() time.Duration { return time.Since(h.start) }
	if reg != nil {
		h.events = reg.Events()
		for k := fault.Kind(0); k < fault.NumKinds; k++ {
			h.counters[k] = reg.Counter(obs.Labeled("faultrt_injected_total", "kind", k.String()))
		}
	}
	return h
}

// Elapsed returns the hook's run clock.
func (h *Hook) Elapsed() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.now()
}

// Crashed reports whether process p has fail-stopped. The first true
// verdict per process is recorded as a crash event and counted.
func (h *Hook) Crashed(p mid.ProcID) bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	now := h.now()
	if !h.inj.Crashed(p, fault.Time(now)) {
		h.mu.Unlock()
		return false
	}
	first := false
	if !h.crashSeen[p] {
		h.crashSeen[p] = true
		r := h.blameFor(p)
		r.crashed = true
		r.crashedAt = now
		h.record(Event{At: now, Op: "crash", Src: p, Dst: mid.None,
			Kinds: fault.KindSet(0).With(fault.KindCrash)})
		first = true
	}
	onCrash := h.OnCrash
	h.mu.Unlock()
	if first && onCrash != nil {
		onCrash(p, now)
	}
	return true
}

// Send returns the verdict for a datagram src->dst at the send boundary,
// recording and counting any injected fault.
func (h *Hook) Send(src, dst mid.ProcID) fault.Action {
	return h.packet(fault.AtSend, "send", src, dst)
}

// Recv returns the verdict for a datagram src->dst at the receive boundary,
// recording and counting any injected fault.
func (h *Hook) Recv(src, dst mid.ProcID) fault.Action {
	return h.packet(fault.AtRecv, "recv", src, dst)
}

func (h *Hook) packet(side fault.Side, op string, src, dst mid.ProcID) fault.Action {
	if h == nil {
		return fault.Action{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	act := h.inj.Packet(side, src, dst, fault.Time(now))
	if act.Faulty() {
		// Faults on either side starve the sender's messages: charge the
		// source, whose MIDs are what a stuck span will be blocked on.
		h.charge(src, now, act)
		h.record(Event{At: now, Op: op, Src: src, Dst: dst, Kinds: act.Kinds})
	}
	return act
}

// charge updates the per-source blame record. Callers hold h.mu.
func (h *Hook) charge(src mid.ProcID, now time.Duration, act fault.Action) {
	r := h.blameFor(src)
	if act.Drop {
		r.drops++
	}
	if act.Delay > 0 {
		r.delays++
	}
	if act.Dup > 0 {
		r.dups++
	}
	r.lastKinds = act.Kinds
	r.lastAt = now
}

func (h *Hook) blameFor(p mid.ProcID) *blameRec {
	r := h.blame[p]
	if r == nil {
		r = &blameRec{}
		h.blame[p] = r
	}
	return r
}

// record appends one trace event and bumps the per-kind counters. Callers
// hold h.mu.
func (h *Hook) record(e Event) {
	for k := fault.Kind(0); k < fault.NumKinds; k++ {
		if !e.Kinds.Has(k) {
			continue
		}
		h.injected[k]++
		if h.counters[k] != nil {
			h.counters[k].Inc()
		}
	}
	e.Seq = len(h.trace) + int(h.dropped)
	if len(h.trace) < h.traceCap {
		h.trace = append(h.trace, e)
	} else {
		h.dropped++
	}
	if h.events != nil {
		if e.Op == "crash" {
			h.events.Addf("faultrt: crash p%d at %v", e.Src, e.At.Round(time.Millisecond))
		} else {
			h.events.Addf("faultrt: %s %s %d->%d at %v", e.Kinds, e.Op, e.Src, e.Dst,
				e.At.Round(time.Millisecond))
		}
	}
}

// Trace returns a copy of the retained injected-fault trace, in injection
// order, plus how many events overflowed the retention cap.
func (h *Hook) Trace() ([]Event, int64) {
	if h == nil {
		return nil, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Event(nil), h.trace...), h.dropped
}

// TraceString renders the retained trace one event per line, without
// wall-clock offsets, for byte-comparable determinism checks.
func (h *Hook) TraceString() string {
	evs, _ := h.Trace()
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Injected returns the per-kind injected-fault counts.
func (h *Hook) Injected() map[string]int64 {
	out := make(map[string]int64, fault.NumKinds)
	if h == nil {
		return out
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for k := fault.Kind(0); k < fault.NumKinds; k++ {
		out[k.String()] = h.injected[k]
	}
	return out
}

// Blame summarizes, for the processes rooting the given blocking MIDs, the
// faults injected against them — the lifecycle watchdog appends it to a
// stuck span's flag so the log names the injected fault that starved the
// span. Returns "" when no blamed process has any fault on record.
func (h *Hook) Blame(blocking []mid.MID) string {
	if h == nil || len(blocking) == 0 {
		return ""
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := make(map[mid.ProcID]bool, len(blocking))
	var parts []string
	for _, m := range blocking {
		if seen[m.Proc] {
			continue
		}
		seen[m.Proc] = true
		r := h.blame[m.Proc]
		if r == nil {
			continue
		}
		var frag []string
		if r.crashed {
			frag = append(frag, fmt.Sprintf("crashed at %v", r.crashedAt.Round(time.Millisecond)))
		}
		if r.drops > 0 {
			frag = append(frag, fmt.Sprintf("%d drops", r.drops))
		}
		if r.delays > 0 {
			frag = append(frag, fmt.Sprintf("%d delays", r.delays))
		}
		if r.dups > 0 {
			frag = append(frag, fmt.Sprintf("%d dups", r.dups))
		}
		if len(frag) == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("p%d: %s", m.Proc, strings.Join(frag, ", ")))
	}
	if len(parts) == 0 {
		return ""
	}
	return "faultrt[" + strings.Join(parts, "; ") + "]"
}
