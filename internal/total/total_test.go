package total

import (
	"math/rand"
	"testing"

	"urcgc/internal/core"
	"urcgc/internal/fault"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

func submitWorkload(t *Cluster, rng *rand.Rand, perProc int) func(int) {
	return func(round int) {
		if round%2 != 0 || round/2 >= perProc {
			return
		}
		for i := 0; i < t.C.N(); i++ {
			p := mid.ProcID(i)
			if t.C.Active(p) {
				_, _ = t.Submit(p, []byte{byte(rng.Intn(256))})
			}
		}
	}
}

func TestTotalOrderReliable(t *testing.T) {
	tc, err := NewCluster(Config{N: 5, K: 3, R: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	perProc := 10
	res, err := tc.Run(core.RunOptions{
		MaxRounds: 600, MinRounds: 2 * 2 * (perProc + 6),
		OnRound:           submitWorkload(tc, rng, perProc),
		StopWhenQuiescent: true, DrainSubruns: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("never quiescent")
	}
	if err := tc.VerifyTotalOrder(); err != nil {
		t.Fatal(err)
	}
	// Every data message got ordered at every member.
	want := 5 * perProc
	for i := 0; i < 5; i++ {
		if got := len(tc.OrderedLog[i]); got != want {
			t.Errorf("member %d ordered %d, want %d", i, got, want)
		}
	}
	// Total order costs more latency than the causal service: at least one
	// extra trip through the sequencer.
	if d := tc.Delay.MeanRTD(); d < 0.5 {
		t.Errorf("total-order delay %.2f rtd suspiciously low", d)
	}
}

func TestTotalOrderSurvivesSequencerCrash(t *testing.T) {
	// Member 0 is the initial sequencer; crash it mid-run. Member 1 takes
	// over once 0 is excluded and resolved; the combined order must stay
	// consistent and complete for all data the survivors generated.
	tc, err := NewCluster(Config{
		N: 5, K: 2, R: 6, Seed: 3,
		Injector: fault.Crash{Proc: 0, At: fault.Time(sim.StartOfSubrun(8))},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	perProc := 12
	res, err := tc.Run(core.RunOptions{
		MaxRounds: 900, MinRounds: 2 * 2 * (perProc + 10),
		OnRound:           submitWorkload(tc, rng, perProc),
		StopWhenQuiescent: true, DrainSubruns: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("never quiescent")
	}
	if err := tc.VerifyTotalOrder(); err != nil {
		t.Fatal(err)
	}
	// Survivors ordered every message the group processed (member 0's
	// unsequenced backlog was re-sequenced by member 1).
	survivors := tc.C.ActiveSet()
	if len(survivors) != 4 {
		t.Fatalf("survivors = %v", survivors)
	}
	ref := len(tc.OrderedLog[survivors[0]])
	if ref == 0 {
		t.Fatal("nothing ordered")
	}
	for _, p := range survivors {
		if got := len(tc.OrderedLog[p]); got != ref {
			t.Errorf("member %d ordered %d, others %d", p, got, ref)
		}
	}
	// At minimum every submission by a survivor was ordered (member 0's
	// pre-crash submissions may be partially condemned).
	if ref < perProc*4 {
		t.Errorf("ordered %d, want at least the survivors' %d submissions", ref, perProc*4)
	}
}

func TestBatchCodec(t *testing.T) {
	in := []mid.MID{{Proc: 0, Seq: 1}, {Proc: 3, Seq: 99}}
	out, err := decodeBatch(encodeBatch(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Errorf("round trip = %v", out)
	}
	if _, err := decodeBatch([]byte{markData, 0, 0}); err == nil {
		t.Error("wrong marker accepted")
	}
	if _, err := decodeBatch([]byte{markOrder, 0, 2, 1}); err == nil {
		t.Error("truncated batch accepted")
	}
	empty, err := decodeBatch(encodeBatch(nil))
	if err != nil || len(empty) != 0 {
		t.Errorf("empty batch: %v %v", empty, err)
	}
}

func TestDeterministicTotalOrder(t *testing.T) {
	runOnce := func() []mid.MID {
		tc, err := NewCluster(Config{N: 4, K: 2, R: 6, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		_, err = tc.Run(core.RunOptions{
			MaxRounds: 400, MinRounds: 2 * 2 * 12,
			OnRound:           submitWorkload(tc, rng, 8),
			StopWhenQuiescent: true, DrainSubruns: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tc.OrderedLog[0]
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d", i)
		}
	}
}
