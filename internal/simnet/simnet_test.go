package simnet

import (
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/fault"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

func data(p mid.ProcID, s mid.Seq) *wire.Data {
	return &wire.Data{Msg: causal.Message{ID: mid.MID{Proc: p, Seq: s}}}
}

type recorder struct {
	got []wire.PDU
	src []mid.ProcID
	at  []sim.Time
	eng *sim.Engine
}

func (r *recorder) Recv(src mid.ProcID, pdu wire.PDU) {
	r.got = append(r.got, pdu)
	r.src = append(r.src, src)
	r.at = append(r.at, r.eng.Now())
}

func TestSendDelivers(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 3, nil)
	rec := &recorder{eng: eng}
	nw.Attach(1, rec)
	nw.Send(0, 1, data(0, 1))
	eng.Run()
	if len(rec.got) != 1 || rec.src[0] != 0 {
		t.Fatalf("got %d deliveries", len(rec.got))
	}
	if rec.at[0] <= 0 || rec.at[0] >= sim.TicksPerRound {
		t.Errorf("delivery at %d, want within the round", rec.at[0])
	}
	if nw.Load().TotalMsgs() != 1 {
		t.Errorf("load = %v", nw.Load())
	}
}

func TestSelfSendIgnored(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, nil)
	rec := &recorder{eng: eng}
	nw.Attach(0, rec)
	nw.Send(0, 0, data(0, 1))
	eng.Run()
	if len(rec.got) != 0 {
		t.Error("self-send must not traverse the network")
	}
	if nw.Load().TotalMsgs() != 0 {
		t.Error("self-send must not be accounted")
	}
}

func TestMulticastFanout(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 4, nil)
	var count int
	for p := mid.ProcID(1); p < 4; p++ {
		nw.Attach(p, HandlerFunc(func(mid.ProcID, wire.PDU) { count++ }))
	}
	nw.Multicast(0, []mid.ProcID{0, 1, 2, 3}, data(0, 1))
	eng.Run()
	if count != 3 {
		t.Errorf("deliveries = %d, want 3 (self skipped)", count)
	}
	if nw.Load().Counts[wire.KindData] != 3 {
		t.Errorf("accounted %d sends", nw.Load().Counts[wire.KindData])
	}
}

func TestCrashedSenderSendsNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, fault.Crash{Proc: 0, At: 0})
	rec := &recorder{eng: eng}
	nw.Attach(1, rec)
	nw.Send(0, 1, data(0, 1))
	eng.Run()
	if len(rec.got) != 0 {
		t.Error("crashed sender must emit nothing")
	}
	if nw.Load().TotalMsgs() != 0 {
		t.Error("crashed sends are not offered load")
	}
}

func TestCrashedReceiverAbsorbsNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, fault.Crash{Proc: 1, At: 0})
	rec := &recorder{eng: eng}
	nw.Attach(1, rec)
	nw.Send(0, 1, data(0, 1))
	eng.Run()
	if len(rec.got) != 0 {
		t.Error("crashed receiver must get nothing")
	}
	if nw.Drops() != 1 {
		t.Errorf("Drops = %d", nw.Drops())
	}
}

func TestSendOmission(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, &fault.EveryNth{N: 2, Side: fault.AtSend})
	rec := &recorder{eng: eng}
	nw.Attach(1, rec)
	for i := 0; i < 6; i++ {
		nw.Send(0, 1, data(0, mid.Seq(i+1)))
	}
	eng.Run()
	if len(rec.got) != 3 {
		t.Errorf("deliveries = %d, want 3", len(rec.got))
	}
	// Offered load counts all 6; drops count 3.
	if nw.Load().TotalMsgs() != 6 || nw.Drops() != 3 {
		t.Errorf("load=%d drops=%d", nw.Load().TotalMsgs(), nw.Drops())
	}
}

// TestDupAndDelayVerdicts checks that the network honours a whole verdict,
// not just its drop bit: a duplicated datagram arrives 1+Dup times, a
// delayed one arrives exactly Delay ticks after its undelayed twin, on
// either side of the wire.
func TestDupAndDelayVerdicts(t *testing.T) {
	const lat, delay = 100, 300
	cases := []struct {
		name string
		inj  fault.Injector
		want []sim.Time // arrival times of the datagrams, in order
	}{
		{"clean", fault.None{}, []sim.Time{lat, lat}},
		{"dup at send", &fault.DupEvery{N: 2, Copies: 2, Side: fault.AtSend}, []sim.Time{lat, lat, lat, lat}},
		{"dup at recv", &fault.DupEvery{N: 1, Copies: 1, Side: fault.AtRecv}, []sim.Time{lat, lat, lat, lat}},
		{"delay at send", fault.NewDelayEvery(1, delay, 0, fault.AtSend, 1), []sim.Time{lat + delay, lat + delay}},
		{"delay at recv", fault.NewDelayEvery(2, delay, 0, fault.AtRecv, 1), []sim.Time{lat, lat + delay}},
		{"dup and delay", fault.Multi{
			&fault.DupEvery{N: 1, Copies: 1, Side: fault.AtSend},
			fault.NewDelayEvery(2, delay, 0, fault.AtSend, 1),
		}, []sim.Time{lat, lat, lat + delay, lat + delay}},
	}
	for _, c := range cases {
		eng := sim.NewEngine(1)
		nw := New(eng, 2, c.inj)
		nw.SetLatency(FixedLatency(lat))
		rec := &recorder{eng: eng}
		nw.Attach(1, rec)
		nw.Send(0, 1, data(0, 1))
		nw.Send(0, 1, data(0, 2))
		eng.Run()
		if len(rec.at) != len(c.want) {
			t.Errorf("%s: %d arrivals at %v, want %v", c.name, len(rec.at), rec.at, c.want)
			continue
		}
		for i := range c.want {
			if rec.at[i] != c.want[i] {
				t.Errorf("%s: arrivals at %v, want %v", c.name, rec.at, c.want)
				break
			}
		}
		if nw.Load().TotalMsgs() != 2 || nw.Drops() != 0 {
			t.Errorf("%s: load %d drops %d, want 2 offered and none dropped", c.name, nw.Load().TotalMsgs(), nw.Drops())
		}
	}
}

// TestDelayedDatagramToCrashedReceiver checks that a datagram held back by
// a receive-side delay is absorbed if its receiver crashes meanwhile.
func TestDelayedDatagramToCrashedReceiver(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, fault.Multi{
		fault.NewDelayEvery(1, 300, 0, fault.AtRecv, 1),
		fault.Crash{Proc: 1, At: 200},
	})
	nw.SetLatency(FixedLatency(100))
	rec := &recorder{eng: eng}
	nw.Attach(1, rec)
	nw.Send(0, 1, data(0, 1))
	eng.Run()
	if len(rec.got) != 0 || nw.Drops() != 1 {
		t.Errorf("deliveries %d drops %d, want the delayed datagram absorbed", len(rec.got), nw.Drops())
	}
}

func TestDeliveryWithinRound(t *testing.T) {
	eng := sim.NewEngine(7)
	nw := New(eng, 2, nil)
	rec := &recorder{eng: eng}
	nw.Attach(1, rec)
	// Send at the start of round 3.
	eng.At(sim.StartOfRound(3), func() { nw.Send(0, 1, data(0, 1)) })
	eng.Run()
	if len(rec.got) != 1 {
		t.Fatal("no delivery")
	}
	if got := sim.RoundOf(rec.at[0]); got != 3 {
		t.Errorf("delivered in round %d, want 3", got)
	}
}

func TestFixedLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, nil)
	nw.SetLatency(FixedLatency(123))
	rec := &recorder{eng: eng}
	nw.Attach(1, rec)
	nw.Send(0, 1, data(0, 1))
	eng.Run()
	if rec.at[0] != 123 {
		t.Errorf("delivered at %d", rec.at[0])
	}
}

func TestUnattachedDestinationDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, nil)
	nw.Send(0, 1, data(0, 1))
	eng.Run()
	if nw.Drops() != 1 {
		t.Errorf("Drops = %d", nw.Drops())
	}
}

func TestOnDeliverHook(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, nil)
	nw.Attach(1, HandlerFunc(func(mid.ProcID, wire.PDU) {}))
	var hooked int
	nw.OnDeliver = func(src, dst mid.ProcID, pdu wire.PDU) {
		hooked++
		if src != 0 || dst != 1 || pdu.Kind() != wire.KindData {
			t.Errorf("hook saw %d->%d %v", src, dst, pdu.Kind())
		}
	}
	nw.Send(0, 1, data(0, 1))
	eng.Run()
	if hooked != 1 {
		t.Errorf("hooked = %d", hooked)
	}
}

func TestAttachOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(sim.NewEngine(1), 2, nil).Attach(5, HandlerFunc(func(mid.ProcID, wire.PDU) {}))
}

func TestMatrixLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	base := [][]sim.Time{{0, 100}, {200, 0}}
	l := MatrixLatency(base, 0)
	if got := l(0, 1, eng); got != 100 {
		t.Errorf("latency(0,1) = %d", got)
	}
	if got := l(1, 0, eng); got != 200 {
		t.Errorf("latency(1,0) = %d", got)
	}
	// Out-of-matrix pairs fall back to half a round.
	if got := l(5, 9, eng); got != sim.TicksPerRound/2 {
		t.Errorf("fallback = %d", got)
	}
	// Clamping: zero base becomes >= 1; huge base stays inside the round.
	if got := l(0, 0, eng); got < 1 {
		t.Errorf("clamped low = %d", got)
	}
	huge := MatrixLatency([][]sim.Time{{2 * sim.TicksPerRound}}, 0)
	if got := huge(0, 0, eng); got >= sim.TicksPerRound {
		t.Errorf("clamped high = %d", got)
	}
}

func TestTwoSiteLatency(t *testing.T) {
	eng := sim.NewEngine(2)
	l := TwoSiteLatency(map[mid.ProcID]bool{0: true, 1: true}, 50, 400, 0)
	if got := l(0, 1, eng); got != 50 {
		t.Errorf("local = %d", got)
	}
	if got := l(0, 2, eng); got != 400 {
		t.Errorf("remote = %d", got)
	}
	if got := l(2, 3, eng); got != 50 {
		t.Errorf("other-site local = %d", got)
	}
}

// TestTwoSiteProtocolRun: the protocol converges over a heterogeneous
// topology; delays grow with the remote link but nothing else changes.
func TestTwoSiteProtocolRun(t *testing.T) {
	// Exercised at the protocol level in core (latency is injected through
	// the cluster config); here verify deliveries respect the model.
	eng := sim.NewEngine(3)
	nw := New(eng, 4, nil)
	nw.SetLatency(TwoSiteLatency(map[mid.ProcID]bool{0: true, 1: true}, 50, 400, 10))
	var localAt, remoteAt sim.Time
	nw.Attach(1, HandlerFunc(func(mid.ProcID, wire.PDU) { localAt = eng.Now() }))
	nw.Attach(2, HandlerFunc(func(mid.ProcID, wire.PDU) { remoteAt = eng.Now() }))
	nw.Send(0, 1, data(0, 1))
	nw.Send(0, 2, data(0, 2))
	eng.Run()
	if !(localAt < remoteAt) {
		t.Errorf("local %d should beat remote %d", localAt, remoteAt)
	}
}
