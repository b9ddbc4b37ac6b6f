package causal_test

import (
	"math/rand"
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
	"urcgc/internal/waitlist"
)

// The readiness checks run over a message's raw labels and implicit
// predecessor. The references below state Definition 3.1 the long way,
// over the canonical EffectiveDeps list, and the property test requires
// the two to agree everywhere.

func refSatisfied(d mid.MID, processed mid.SeqVector) bool {
	return d.Proc >= 0 && int(d.Proc) < len(processed) && processed[d.Proc] >= d.Seq
}

func refReady(m *causal.Message, processed mid.SeqVector) bool {
	for _, d := range m.EffectiveDeps() {
		if !refSatisfied(d, processed) {
			return false
		}
	}
	return true
}

func refDoomed(tr *causal.Tracker, m *causal.Message) bool {
	if tr.IsCondemned(m.ID) {
		return true
	}
	for _, d := range m.EffectiveDeps() {
		if tr.IsCondemned(d) {
			return true
		}
	}
	return false
}

func refTrackerReady(tr *causal.Tracker, m *causal.Message) bool {
	return !refDoomed(tr, m) && refReady(m, tr.Processed())
}

func refMissingBefore(l *waitlist.List, n int, processed mid.SeqVector) mid.SeqVector {
	need := mid.NewSeqVector(n)
	for _, m := range l.All() {
		for _, d := range m.EffectiveDeps() {
			if d.Proc < 0 || int(d.Proc) >= len(processed) || processed[d.Proc] >= d.Seq {
				continue
			}
			first := processed[d.Proc] + 1
			if l.Has(mid.MID{Proc: d.Proc, Seq: first}) {
				continue
			}
			if need[d.Proc] == 0 || first < need[d.Proc] {
				need[d.Proc] = first
			}
		}
	}
	return need
}

// randProc names a group member, or now and then a process just outside
// the group on either side.
func randProc(rng *rand.Rand, n int) mid.ProcID {
	if rng.Intn(12) == 0 {
		if rng.Intn(2) == 0 {
			return -1
		}
		return mid.ProcID(n)
	}
	return mid.ProcID(rng.Intn(n))
}

// randTracker returns a tracker of n processes with a random processed
// vector and, on some sequences, a condemned suffix above it.
func randTracker(rng *rand.Rand, n int) *causal.Tracker {
	tr := causal.NewTracker(n)
	w := mid.NewSeqVector(n)
	for q := range w {
		w[q] = mid.Seq(rng.Intn(6))
	}
	if err := tr.Install(w); err != nil {
		panic(err)
	}
	for q := range w {
		if rng.Intn(3) == 0 {
			if err := tr.Condemn(mid.ProcID(q), w[q]+1+mid.Seq(rng.Intn(3))); err != nil {
				panic(err)
			}
		}
	}
	return tr
}

// randMessage returns a message whose labels are not canonical: senders
// repeat in any order, labels of the message's own sequence may cover its
// implicit predecessor (or reach past it), and seq-1 first-of-sequence
// messages are common.
func randMessage(rng *rand.Rand, n int) *causal.Message {
	m := &causal.Message{ID: mid.MID{Proc: randProc(rng, n), Seq: mid.Seq(1 + rng.Intn(8))}}
	for i := rng.Intn(5); i > 0; i-- {
		d := mid.MID{Proc: randProc(rng, n), Seq: mid.Seq(rng.Intn(9))}
		if rng.Intn(4) == 0 {
			d.Proc = m.ID.Proc
			d.Seq = m.ID.Seq - 1 + mid.Seq(rng.Intn(2))
		}
		m.Deps = append(m.Deps, d)
	}
	return m
}

func TestReadinessMatchesEffectiveDeps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(6)
		tr := randTracker(rng, n)
		l := waitlist.New(n)
		for i := rng.Intn(8); i >= 0; i-- {
			m := randMessage(rng, n)
			if got, want := causal.Ready(m, tr.Processed()), refReady(m, tr.Processed()); got != want {
				t.Fatalf("Ready(%v %v) at %v = %v, want %v", m.ID, m.Deps, tr.Processed(), got, want)
			}
			if got, want := tr.Doomed(m), refDoomed(tr, m); got != want {
				t.Fatalf("Doomed(%v %v) = %v, want %v", m.ID, m.Deps, got, want)
			}
			if got, want := tr.Ready(m), refTrackerReady(tr, m); got != want {
				t.Fatalf("Tracker.Ready(%v %v) at %v = %v, want %v", m.ID, m.Deps, tr.Processed(), got, want)
			}
			l.Add(m)
		}
		if got, want := l.MissingBefore(tr.Processed()), refMissingBefore(l, n, tr.Processed()); !got.Equal(want) {
			t.Fatalf("MissingBefore at %v = %v, want %v", tr.Processed(), got, want)
		}
	}
}
