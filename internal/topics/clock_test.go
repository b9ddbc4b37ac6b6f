package topics

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// TestRoundNumbersSkipGaps pins the UDP clock's numbering: rounds are
// numbered by elapsed time, so a tick the ticker drops skips its number
// instead of shifting every later round, a late tick does not repeat a
// number, and every skipped number is reported.
func TestRoundNumbersSkipGaps(t *testing.T) {
	const p = 10 * time.Millisecond
	t0 := time.Unix(1000, 0)
	rn := newRoundNumbers(t0, p)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	steps := []struct {
		ms             float64
		round, skipped int
	}{
		{10.2, 0, 0}, // the first tick starts round 0
		{20.1, 1, 0},
		{30.4, 2, 0},
		{60.3, 5, 2}, // ticks 4 and 5 dropped: rounds 3 and 4 skipped
		{70.2, 6, 0}, // and later rounds stay on the elapsed-time grid
		{79.9, 7, 0}, // a tick handled early repeats no number
		{80.5, 8, 0}, // nor does the catch-up tick right behind it
		{110.0, 10, 1},
	}
	for i, st := range steps {
		r, skipped := rn.next(at(st.ms))
		if r != st.round || skipped != st.skipped {
			t.Errorf("tick %d at %.1fms: round %d skipped %d, want round %d skipped %d",
				i, st.ms, r, skipped, st.round, st.skipped)
		}
	}
}

// TestRoundScheduleAbsorbsLateRound pins the lockstep clock's pacing: a
// round that starts late does not push later rounds back, and one more
// than a whole period late re-anchors the schedule instead of being
// followed by back-to-back catch-up rounds.
func TestRoundScheduleAbsorbsLateRound(t *testing.T) {
	const p = 10 * time.Millisecond
	t0 := time.Unix(1000, 0)
	s := roundSchedule{anchor: t0, period: p}
	ms := func(v int) time.Time { return t0.Add(time.Duration(v) * time.Millisecond) }
	steps := []struct {
		round, now int // ask at now (ms) how long until round starts
		want       time.Duration
	}{
		{1, 3, 7 * time.Millisecond},    // on time: round 1 at 10ms
		{2, 16, 4 * time.Millisecond},   // round 1 ran 4ms late; round 2 still at 20ms
		{3, 38, 0},                      // 8ms overdue (< a period): start at once
		{4, 39, 1 * time.Millisecond},   // and round 4 keeps the 40ms slot
		{5, 65, 0},                      // 15ms overdue: start at once, re-anchor
		{6, 66, 9 * time.Millisecond},   // round 6 one period after round 5
		{7, 85, 0},                      // exactly on time
		{8, 90, 5 * time.Millisecond},   // the re-anchored grid: 65 + 3·10
		{9, 200, 0},                     // a long stall
		{10, 201, 9 * time.Millisecond}, // is not followed by a burst
	}
	for _, st := range steps {
		if got := s.wait(st.round, ms(st.now)); got != st.want {
			t.Errorf("round %d asked at %dms: wait %v, want %v", st.round, st.now, got, st.want)
		}
	}
}

// roundsOf reads one entity's rt_rounds_total.
func roundsOf(reg *obs.Registry, node, group int) int64 {
	return reg.Counter(obs.Labeled("rt_rounds_total", "node", strconv.Itoa(node), "group", strconv.Itoa(group))).Value()
}

// TestLockstepBarrierWaitsForEveryEntity stalls one member's protocol loop
// and requires that, once the round in progress has finished elsewhere, no
// protocol entity of any member moves until the stall ends, and none is
// more than one round ahead of the stalled member: the lockstep barrier
// waits for all G×N entities. Afterwards every entity moves on.
func TestLockstepBarrierWaitsForEveryEntity(t *testing.T) {
	const n, groups = 3, 2
	cfg := meshConfig(n, groups)
	cfg.RoundDuration = 2 * time.Millisecond
	cfg.Metrics = obs.New()
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	snap := func() (out [n][groups]int64) {
		for i := 0; i < n; i++ {
			for g := 0; g < groups; g++ {
				out[i][g] = roundsOf(cfg.Metrics, i, g)
			}
		}
		return out
	}
	deadline := time.Now().Add(10 * time.Second)
	for roundsOf(cfg.Metrics, 1, 0) < 5 {
		if time.Now().After(deadline) {
			t.Fatal("the clock never reached round 5")
		}
		time.Sleep(time.Millisecond)
	}

	stalled, release := make(chan struct{}), make(chan struct{})
	unstall := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unstall) // runs before Stop, which waits for the loop
	if err := c.Node(1).enqueueWait(func() { close(stalled); <-release }); err != nil {
		t.Fatal(err)
	}
	<-stalled
	// The round in progress may still finish elsewhere; after that
	// nothing may move until member 1 runs again.
	held := snap()
	deadline = time.Now().Add(10 * time.Second)
	for {
		time.Sleep(20 * cfg.RoundDuration)
		prev := held
		if held = snap(); held == prev {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rounds kept running while member 1 was stalled: %v then %v", prev, held)
		}
	}
	for i := 0; i < n; i++ {
		for g := 0; g < groups; g++ {
			if lead := held[i][g] - held[1][g]; lead < 0 || lead > 1 {
				t.Errorf("member %d group %d is %d rounds ahead of the stalled member; the barrier allows at most one", i, g, lead)
			}
		}
	}
	unstall()

	deadline = time.Now().Add(10 * time.Second)
	for {
		after, moved := snap(), true
		for i := 0; i < n; i++ {
			for g := 0; g < groups; g++ {
				moved = moved && after[i][g] > held[i][g]+1
			}
		}
		if moved {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rounds did not resume after the stall: %v then %v", held, after)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoneSendConfirmsAtNextTick is the regression test for sends held by
// the batch window: with coalescing on and the window set to an hour, a
// lone Send still enters the protocol at the next round tick and confirms
// within a few rounds, on the mesh and over UDP.
func TestLoneSendConfirmsAtNextTick(t *testing.T) {
	const maxRounds = 4 // the wait for the next tick, plus slack for a loaded host
	check := func(t *testing.T, node *MultiNode, reg *obs.Registry) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		before := roundsOf(reg, int(node.ID()), 0)
		if _, err := node.Send(ctx, 0, []byte("lone"), nil); err != nil {
			t.Fatalf("lone send with an hour-long batch window: %v", err)
		}
		if took := roundsOf(reg, int(node.ID()), 0) - before; took > maxRounds {
			t.Errorf("lone send took %d rounds to confirm, want at most %d", took, maxRounds)
		}
	}
	t.Run("mesh", func(t *testing.T) {
		cfg := meshConfig(3, 1)
		cfg.RoundDuration = 5 * time.Millisecond
		cfg.BatchWindow = time.Hour
		cfg.Metrics = obs.New()
		c, err := NewMultiCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		t.Cleanup(c.Stop)
		check(t, c.Node(0), cfg.Metrics)
	})
	t.Run("udp", func(t *testing.T) {
		if testing.Short() {
			t.Skip("real sockets and timers")
		}
		const n = 3
		reg := obs.New()
		peers := freePorts(t, n)
		nodes := make([]*MultiNode, n)
		for i := range nodes {
			node, err := NewMultiNode(Config{
				Config:        core.Config{N: n, K: 5, R: 16, SelfExclusion: true},
				Self:          mid.ProcID(i),
				Peers:         peers,
				RoundDuration: 5 * time.Millisecond,
				BatchWindow:   time.Hour,
				Metrics:       reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = node
		}
		for _, node := range nodes {
			node.Start()
			t.Cleanup(node.Stop)
		}
		check(t, nodes[0], reg)
	})
}
