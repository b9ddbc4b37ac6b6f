package main

// This file is the benchmark's only point of contact with the program:
// every call into wire, core, topics, obs and faultrt goes through it, so a
// change to a layer's public surface meets the benchmark in one place.

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/topics"
	"urcgc/internal/wire"
)

// ---- wire: the codec ----

type pdu = wire.PDU

// encodeFrame appends the encoding of p to dst.
func encodeFrame(dst []byte, p pdu) ([]byte, error) { return wire.MarshalAppend(dst, p) }

// decodeFrame decodes one frame into a PDU that owns its memory.
func decodeFrame(b []byte) (pdu, error) { return wire.Unmarshal(b) }

// frameKind names a frame's PDU kind from its first byte, and reports
// whether it carries user messages.
func frameKind(b []byte) (name string, data bool) {
	if len(b) == 0 {
		return "empty", false
	}
	switch k := wire.Kind(b[0]); k {
	case wire.KindData, wire.KindDataBatch:
		return "data", true
	case wire.KindRequest:
		return "request", false
	case wire.KindDecision:
		return "decision", false
	case wire.KindRecover:
		return "recover", false
	case wire.KindRetransmit:
		return "retransmit", false
	default:
		return strings.ToLower(k.String()), false
	}
}

// ---- core: the protocol entity ----

// protoHooks are the protocol events the synchronous loop observes.
// Every hook runs on the driving goroutine, inside Submit, StartRound or
// Recv.
type protoHooks struct {
	Process       func(id mid.MID, payload []byte)
	Stable        func(clean mid.SeqVector)
	Recover       func()
	Retransmit    func(msgs int)
	CrashDeclared func(q mid.ProcID)
	RoundEnd      func(history, waiting int)
}

// protoMember is one core.Process driven by the benchmark.
type protoMember struct{ p *core.Process }

// transport is what a protocol member sends through; the synchronous
// loop owns the implementation.
type transport = core.Transport

func newProtoMember(id mid.ProcID, sp syncParams, tp transport, h protoHooks) (protoMember, error) {
	cfg := core.Config{N: sp.N, K: sp.K, R: sp.R, BatchMax: sp.BatchMax, SelfExclusion: true}
	cb := core.Callbacks{
		OnProcess:       func(m *causal.Message) { h.Process(m.ID, m.Payload) },
		OnStable:        h.Stable,
		OnRecover:       func(mid.ProcID, int) { h.Recover() },
		OnRetransmit:    func(_ mid.ProcID, msgs int) { h.Retransmit(msgs) },
		OnCrashDeclared: h.CrashDeclared,
		OnRoundEnd:      func(o core.RoundObservation) { h.RoundEnd(o.HistoryLen, o.WaitingLen) },
	}
	p, err := core.NewProcess(id, cfg, tp, cb)
	return protoMember{p}, err
}

func (m protoMember) submit(payload []byte, deps mid.DepList) (mid.MID, error) {
	return m.p.Submit(payload, deps)
}
func (m protoMember) startRound(r int)           { m.p.StartRound(r) }
func (m protoMember) recv(src mid.ProcID, p pdu) { m.p.Recv(src, p) }
func (m protoMember) running() bool              { return m.p.Running() }

// ---- topics + rt: the live multi-group runtime, over UDP loopback or the in-process mesh ----

// liveConfig is the runtime shape of a live workload.
type liveConfig struct {
	// Mesh hosts the members as one in-process topics.MultiCluster: frames
	// cross the codec and the group envelope but no socket, and rounds run
	// in lockstep across members. Otherwise each member is a
	// topics.MultiNode on its own loopback UDP socket with its own clock.
	Mesh        bool
	N, Groups   int
	K, R        int
	BatchMax    int
	Round       time.Duration
	BatchWindow time.Duration
	Metrics     *obs.Registry
}

// liveCluster is n multi-group members sharing one metrics registry, so
// unlabeled socket and demux counters sum over members.
type liveCluster struct {
	nodes []*topics.MultiNode
	stop  func()
}

func startLiveCluster(c liveConfig) (*liveCluster, error) {
	cfg := topics.Config{
		Config:        core.Config{N: c.N, K: c.K, R: c.R, SelfExclusion: true, BatchMax: c.BatchMax},
		Groups:        c.Groups,
		RoundDuration: c.Round,
		BatchWindow:   c.BatchWindow,
		Metrics:       c.Metrics,
		Logf:          func(string, ...any) {},
	}
	if c.Mesh {
		mc, err := topics.NewMultiCluster(cfg)
		if err != nil {
			return nil, err
		}
		lc := &liveCluster{stop: mc.Stop}
		for i := 0; i < c.N; i++ {
			lc.nodes = append(lc.nodes, mc.Node(mid.ProcID(i)))
		}
		mc.Start()
		return lc, nil
	}
	peers, err := loopbackPorts(c.N)
	if err != nil {
		return nil, err
	}
	cfg.Peers = peers
	lc := &liveCluster{}
	lc.stop = func() {
		for _, n := range lc.nodes {
			n.Stop()
		}
	}
	for i := 0; i < c.N; i++ {
		cfg.Self = mid.ProcID(i)
		node, err := topics.NewMultiNode(cfg)
		if err != nil {
			lc.stop()
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		lc.nodes = append(lc.nodes, node)
	}
	for _, n := range lc.nodes {
		n.Start()
	}
	return lc, nil
}

// loopbackPorts reserves n loopback UDP ports by binding and releasing
// them; the members then bind the same addresses.
func loopbackPorts(n int) ([]string, error) {
	addrs := make([]string, n)
	conns := make([]*net.UDPConn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := range addrs {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		conns = append(conns, c)
		addrs[i] = c.LocalAddr().String()
	}
	return addrs, nil
}

// indication is one delivered message as the benchmark sees it.
type indication struct {
	ID      mid.MID
	Payload []byte
}

func (lc *liveCluster) send(ctx context.Context, member, group int, payload []byte, deps mid.DepList) (mid.MID, error) {
	return lc.nodes[member].Send(ctx, uint32(group), payload, deps)
}

// indications forwards one member's stream for one group to fn until done
// closes, then returns.
func (lc *liveCluster) indications(member, group int, done <-chan struct{}, fn func(indication)) error {
	ch, err := lc.nodes[member].Indications(uint32(group))
	if err != nil {
		return err
	}
	for {
		select {
		case <-done:
			return nil
		case ind := <-ch:
			fn(indication{ID: ind.Msg.ID, Payload: ind.Msg.Payload})
		}
	}
}

// left reports whether member halted itself in group, and why.
func (lc *liveCluster) left(member, group int) (string, bool) {
	r, gone := lc.nodes[member].Left(uint32(group))
	if !gone {
		return "", false
	}
	return r.String(), true
}

// registryView is a reading of the shared metrics registry: every series
// by its full name, and summed by base name (labels dropped). Histograms
// appear as their _count and _sum_us projections.
type registryView struct {
	byName map[string]int64
	sum    map[string]int64
}

func readRegistry(reg *obs.Registry) registryView {
	v := registryView{byName: map[string]int64{}, sum: map[string]int64{}}
	reg.VisitInts(func(name string, x int64) {
		v.byName[name] = x
		v.sum[baseName(name)] += x
	})
	return v
}

// gaugePeaks returns the largest current value among the series of each
// named base, without building a full view.
func gaugePeaks(reg *obs.Registry, bases ...string) []int64 {
	out := make([]int64, len(bases))
	reg.VisitInts(func(name string, x int64) {
		b := baseName(name)
		for i, want := range bases {
			if b == want && x > out[i] {
				out[i] = x
			}
		}
	})
	return out
}

func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// ---- faultrt: the invariant audit ----

// auditLog is one member's processing order in one group: message ids
// with the dependencies the benchmark declared for them.
type auditEntry struct {
	ID   mid.MID
	Deps mid.DepList
}

// auditGroup feeds every member's log into a faultrt.Checker and checks
// uniform atomicity over the survivors and uniform ordering everywhere.
// It returns the violations found, rendered.
func auditGroup(logs map[mid.ProcID][]auditEntry, survivors []mid.ProcID) []string {
	c := faultrt.NewChecker()
	for node, log := range logs {
		for i := range log {
			c.Record(node, &causal.Message{ID: log[i].ID, Deps: log[i].Deps})
		}
	}
	var out []string
	for _, v := range c.Check(survivors) {
		out = append(out, v.String())
	}
	return out
}
