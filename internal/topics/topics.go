// Package topics is the live runtime: one group member hosting G≥1
// independent urcgc groups in real time, over either the in-process mesh
// (MultiCluster) or one UDP socket (MultiNode from NewMultiNode). Each
// group is a full protocol entity — its own rotating coordinator, history
// buffer and causal order — multiplexed onto the member's one transport by
// the group-id frame envelope from internal/wire. Group 0's frames are
// byte-identical to the envelope-free framing, so a single-group member is
// simply G=1.
//
// One protocol loop per member: a single goroutine owns every hosted
// group's core.Process, so G groups cost one protocol goroutine and the
// single-owner core.Process contract holds without locks. (Hashing groups
// onto several loops was measured and bought nothing: the confirm latency,
// not the CPU, bounds a member's throughput.) Both backends share one
// egress (frame once, consult the fault hook per destination, capture) and
// one ingress (validate, consult the fault hook, decode, dispatch onto the
// loop); they differ only in how a frame reaches a peer and in what drives
// the rounds.
//
// Demux ownership rule: a received frame never crosses a goroutine
// boundary. It is validated and decoded into a self-owned PDU on the
// goroutine that received it; only that PDU travels into the loop's inbox.
// Symmetrically, outgoing frames are pooled buffers, refcounted across a
// broadcast fan-out, that return to the wire pool after the last write.
package topics

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/fault"
	"urcgc/internal/faultrt"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/rt"
	"urcgc/internal/wire"
)

// maxDatagram bounds frames in both directions on both backends.
const maxDatagram = 64 * 1024

// Config configures one member's runtime. The embedded core.Config applies
// to every group; all groups share the member identity, the peer set and
// the transport.
type Config struct {
	core.Config
	// Groups is how many independent groups (ids 0..Groups-1) this member
	// hosts. Default 1.
	Groups int
	// Self is this member's identity in every group. Ignored by the mesh,
	// which builds members 0..N-1.
	Self mid.ProcID
	// Peers maps every ProcID to its UDP address; Peers[Self] is our bind
	// address. Ignored by the mesh.
	Peers []string
	// RoundDuration is the wall-clock round length, shared by all groups.
	// Default 20ms over UDP, 2ms on the mesh.
	RoundDuration time.Duration
	// BatchWindow enables each group's coalescing sender: Sends arriving
	// within this window (or until the BatchMax / BatchBytes budgets fill)
	// enter the loop as one event and leave the next subrun as DataBatch
	// frames. Zero disables coalescing.
	BatchWindow time.Duration
	// InboxDepth bounds the member's inbox, the protocol loop's event queue
	// (default 4096). A full inbox drops datagrams — an omission the
	// protocol repairs.
	InboxDepth int
	// IndicationDepth bounds each group's indication queue (default 1024).
	IndicationDepth int
	// TxDepth bounds the UDP sender's outgoing-datagram queue (default 4096).
	TxDepth int
	// Metrics, when non-nil, receives per-group protocol series (each
	// carrying node and group labels) plus shared transport accounting.
	Metrics *obs.Registry
	// Lifecycle, when non-nil, enables per-MID span tracking on every
	// group: each session gets its own group-tagged lifecycle.Tracer. The
	// watchdog Blame defaults to the fault hook's when Fault is set, else
	// to naming the group. Nil keeps the hot path free of
	// tracing branches.
	Lifecycle *lifecycle.Options
	// Fault, when non-nil, consults a wall-clock fault injector at the
	// member's transport boundary: once per frame and destination on
	// egress, once per received frame on ingress, and once per round to
	// fail-stop a scheduled crash of the member. Over UDP the hook sees
	// only this member's boundary, so a cluster-wide schedule needs the
	// same seeded schedule on every member. Nil costs one pointer check
	// per frame.
	Fault *faultrt.Hook
	// DropFrame, when non-nil, is consulted with every outgoing frame's
	// (group, src, dst); returning true drops it as an injected partition.
	// A test seam for partitioning individual groups; nil in production.
	DropFrame func(group uint32, src, dst mid.ProcID) bool
	// Captures holds one frame flight recorder per member, indexed by
	// ProcID; a missing or nil entry records nothing. Each member records
	// the frames crossing its own boundary on its own ring — egress with
	// the send-side fault verdict, ingress with the demux or receive-side
	// verdict, every group on the one ring — for /capture dumps and
	// offline replay. A UDP member uses Captures[Self] only.
	Captures []*capture.Ring
	// Logf receives throttled operator-visible warnings; nil means
	// log.Printf.
	Logf func(format string, args ...any)
	// JoinInstalled, when non-nil, fires on the protocol loop the
	// moment a joining incarnation installs the sponsor's state transfer
	// in one group, before it processes anything there.
	JoinInstalled func(node mid.ProcID, group uint32, stable mid.SeqVector)
	// Joined, when non-nil, fires on the protocol loop each time
	// a joining member is re-admitted into one hosted group. Groups rejoin
	// independently: a member is fully back once every group has fired.
	Joined func(node mid.ProcID, group uint32)
	// FastForwarded, when non-nil, fires on the protocol loop when
	// recovery tells a member that of's sequence through to was purged as
	// uniformly stable, so its frontier skipped the gap.
	FastForwarded func(node mid.ProcID, group uint32, of mid.ProcID, to mid.Seq)
}

func (c *Config) fill(mesh bool) {
	if c.Groups == 0 {
		c.Groups = 1
	}
	if c.RoundDuration == 0 {
		if mesh {
			c.RoundDuration = 2 * time.Millisecond
		} else {
			c.RoundDuration = 20 * time.Millisecond
		}
	}
	if c.BatchWindow > 0 && c.BatchMax == 0 {
		c.BatchMax = core.DefaultBatchMax
	}
	if c.InboxDepth == 0 {
		c.InboxDepth = 4096
	}
	if c.IndicationDepth == 0 {
		c.IndicationDepth = 1024
	}
	if c.TxDepth == 0 {
		c.TxDepth = 4096
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

func (c *Config) validate() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Groups < 1 || c.Groups > wire.MaxGroupID {
		return fmt.Errorf("topics: %d groups outside [1,%d]", c.Groups, int64(wire.MaxGroupID))
	}
	return nil
}

// Indication is the urcgc-data.Ind primitive: one message processed in
// causal order, tagged with the group that carried it.
type Indication struct {
	Group uint32
	Msg   causal.Message
}

// Terminal Send errors, matched with errors.Is. A session that sees one
// should stop sending to that member or group.
var (
	// ErrStopped: the member was stopped.
	ErrStopped = errors.New("topics: node stopped")
	// ErrKilled: the member is fail-stopped (Kill, or a scheduled crash).
	ErrKilled = errors.New("fail-stopped")
	// ErrLeft: the member halted itself in the group (self-exclusion or
	// suicide) and stays out of it until restarted.
	ErrLeft = errors.New("left group")
)

// link carries one framed datagram to member dst: the mesh demultiplexes
// it straight into the peer, UDP queues it on the shared sender. A link
// that keeps the frame past the call takes its own reference on it.
type link interface {
	send(dst mid.ProcID, f *sharedFrame)
}

// MultiNode is one member of every hosted group: G protocol entities over
// one transport, all owned by one protocol loop.
type MultiNode struct {
	cfg      Config
	sessions []*session
	inbox    chan func() // the protocol loop's event queue
	link     link
	capture  *capture.Ring // nil disables frame capture
	killed   atomic.Bool
	mobs     *multiObs
	udp      *udpBackend // nil on a mesh member

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	warnTh   obs.Throttle
}

// newMultiNode prepares the member's loop and every group's protocol
// entity; the caller supplies the backend's link.
func newMultiNode(cfg Config, l link) (*MultiNode, error) {
	m := &MultiNode{
		cfg:    cfg,
		inbox:  make(chan func(), cfg.InboxDepth),
		link:   l,
		stopCh: make(chan struct{}),
		mobs:   newMultiObs(cfg.Metrics),
	}
	if int(cfg.Self) < len(cfg.Captures) {
		m.capture = cfg.Captures[cfg.Self]
	}
	m.sessions = make([]*session, cfg.Groups)
	for g := range m.sessions {
		s, err := newSession(m, uint32(g))
		if err != nil {
			return nil, err
		}
		m.sessions[g] = s
	}
	return m, nil
}

// Start launches the protocol loop and, over UDP, the reader, the round
// clock and the shared sender. Mesh rounds are driven by the cluster.
func (m *MultiNode) Start() {
	m.wg.Add(1)
	go func() { defer m.wg.Done(); m.loop() }()
	if m.udp != nil {
		m.udp.start(m)
	}
}

// Stop halts every group and closes the socket. Submissions still pending
// inside any group's open coalescer window are failed, never leaked.
func (m *MultiNode) Stop() {
	m.stopOnce.Do(func() {
		close(m.stopCh)
		if m.udp != nil {
			m.udp.conn.Close()
		}
		for _, s := range m.sessions {
			s.coal.Stop()
		}
	})
	m.wg.Wait()
}

// ID returns this member's identity.
func (m *MultiNode) ID() mid.ProcID { return m.cfg.Self }

// Groups returns how many groups this member hosts.
func (m *MultiNode) Groups() int { return len(m.sessions) }

// Kill fail-stops the member in every hosted group: from now on it neither
// ticks, nor emits, nor absorbs frames, and its Sends fail — exactly a
// crashed site. The rest of each group detects the silence and excludes it.
func (m *MultiNode) Kill() { m.killed.Store(true) }

// Killed reports whether the member was fail-stopped. Safe from any
// goroutine.
func (m *MultiNode) Killed() bool { return m.killed.Load() }

func (m *MultiNode) session(group uint32) (*session, error) {
	if int64(group) >= int64(len(m.sessions)) {
		return nil, fmt.Errorf("topics: group %d outside [0,%d)", group, len(m.sessions))
	}
	return m.sessions[group], nil
}

// Send implements the urcgc-data.Rq/Conf pair on one group: it submits the
// payload with the given explicit dependencies and blocks until the
// message is processed locally, or the context ends.
func (m *MultiNode) Send(ctx context.Context, group uint32, payload []byte, deps mid.DepList) (mid.MID, error) {
	s, err := m.session(group)
	if err != nil {
		return mid.MID{}, err
	}
	return s.send(ctx, payload, deps, false)
}

// SendCausal is Send with the conservative depend-on-everything-seen
// labelling computed inside the protocol loop.
func (m *MultiNode) SendCausal(ctx context.Context, group uint32, payload []byte) (mid.MID, error) {
	s, err := m.session(group)
	if err != nil {
		return mid.MID{}, err
	}
	return s.send(ctx, payload, nil, true)
}

// Indications returns one group's urcgc-data.Ind stream.
func (m *MultiNode) Indications(group uint32) (<-chan Indication, error) {
	s, err := m.session(group)
	if err != nil {
		return nil, err
	}
	return s.ind, nil
}

// Left reports whether and why this member halted itself in one group.
// Groups leave independently: an exclusion in one group does not touch the
// others.
func (m *MultiNode) Left(group uint32) (core.LeaveReason, bool) {
	s, err := m.session(group)
	if err != nil {
		return 0, false
	}
	return s.left()
}

// Snapshot runs fn on the protocol loop, which owns every group's protocol
// entity, and waits for it. Nothing reached through p may be retained
// after fn returns without cloning; GroupStatus packages a cloned sample.
func (m *MultiNode) Snapshot(ctx context.Context, group uint32, fn func(p *core.Process)) error {
	s, err := m.session(group)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	select {
	case m.inbox <- func() { fn(s.proc); close(done) }:
	case <-m.stopCh:
		return ErrStopped
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-done:
		return nil
	case <-m.stopCh:
		return ErrStopped
	case <-ctx.Done():
		return ctx.Err()
	}
}

// GroupStatus captures a race-free sample of one group's protocol state.
func (m *MultiNode) GroupStatus(ctx context.Context, group uint32) (rt.Status, error) {
	var st rt.Status
	err := m.Snapshot(ctx, group, func(p *core.Process) { st = rt.StatusOf(p) })
	return st, err
}

// Status reports group 0; a multi-group member annotates it with the
// per-group processed counts and one compact GroupStatus per hosted group,
// so urcgc-inspect can judge view divergence and progress skew per group.
func (m *MultiNode) Status(ctx context.Context) (rt.Status, error) {
	st, err := m.GroupStatus(ctx, 0)
	if err != nil || len(m.sessions) == 1 {
		return st, err
	}
	st.GroupProcessed = m.GroupCounts()
	st.Groups = make([]rt.GroupStatus, len(m.sessions))
	for g := range m.sessions {
		gs := &st.Groups[g]
		gid := uint32(g)
		if err := m.Snapshot(ctx, gid, func(p *core.Process) { *gs = rt.GroupStatusOf(gid, p) }); err != nil {
			return st, err
		}
	}
	return st, nil
}

// Lifecycle returns one group's span tracer, or nil when tracing is
// disabled or the group is not hosted. A nil tracer is a no-op receiver,
// so callers may use the result unconditionally.
func (m *MultiNode) Lifecycle(group uint32) *lifecycle.Tracer {
	s, err := m.session(group)
	if err != nil {
		return nil
	}
	return s.tracer
}

// Lifecycles returns the per-group span tracers indexed by group id, or
// nil when tracing is disabled.
func (m *MultiNode) Lifecycles() []*lifecycle.Tracer {
	if m.cfg.Lifecycle == nil {
		return nil
	}
	out := make([]*lifecycle.Tracer, len(m.sessions))
	for g, s := range m.sessions {
		out[g] = s.tracer
	}
	return out
}

// GroupCounts returns the number of messages processed per group so far.
// Safe from any goroutine, even after Stop — it is the shutdown summary's
// data source.
func (m *MultiNode) GroupCounts() []int64 {
	out := make([]int64, len(m.sessions))
	for i, s := range m.sessions {
		out[i] = s.processed.Load()
	}
	return out
}

// warnf logs an operator-visible warning at a throttled rate, appending
// how many similar warnings were suppressed in between.
func (m *MultiNode) warnf(format string, args ...any) {
	suppressed, ok := m.warnTh.Allow()
	if !ok {
		return
	}
	if suppressed > 0 {
		format += fmt.Sprintf(" [+%d warnings suppressed]", suppressed)
	}
	m.cfg.Logf("topics[%d]: "+format, append([]any{int(m.cfg.Self)}, args...)...)
}

// capNote renders the warn-line suffix joining a discard to its captured
// frame; empty when capture is disabled.
func (m *MultiNode) capNote(seq uint64) string {
	if m.capture == nil {
		return ""
	}
	return fmt.Sprintf(" [capture #%d]", seq)
}

// crashCheck fail-stops the member once the fault hook schedules its crash.
func (m *MultiNode) crashCheck() {
	if m.cfg.Fault.Crashed(m.cfg.Self) {
		m.Kill()
	}
}

// loop is the member's protocol goroutine: everything any session's
// core.Process does happens here, preserving the single-owner concurrency
// contract.
func (m *MultiNode) loop() {
	for {
		select {
		case <-m.stopCh:
			return
		case fn := <-m.inbox:
			fn()
		}
	}
}

// enqueue hands a datagram closure to the loop on behalf of one group's
// session; a full inbox drops it, like any datagram, charging both the
// shared counter and the group's own. Reports whether it was accepted.
func (m *MultiNode) enqueue(s *session, fn func()) bool {
	select {
	case m.inbox <- fn:
		return true
	default:
		if m.mobs != nil {
			m.mobs.inboxDrops.Inc()
		}
		s.obs.InboxDropped()
		return false
	}
}

// enqueueWait hands a user command to the loop, blocking while the inbox
// is full — commands are not datagrams and must not be lost.
func (m *MultiNode) enqueueWait(fn func()) error {
	select {
	case m.inbox <- fn:
		return nil
	case <-m.stopCh:
		return ErrStopped
	}
}

// session is one group's protocol entity plus its user-facing plumbing:
// confirm waiters, indication stream, coalescing sender, labeled metrics.
type session struct {
	m      *MultiNode
	group  uint32
	proc   *core.Process // swapped by MultiCluster.Restart on the protocol loop
	obs    *rt.NodeObs
	gobs   *groupObs         // nil when metrics are disabled
	tracer *lifecycle.Tracer // nil unless Config.Lifecycle is set
	coal   *rt.Coalescer     // nil unless BatchWindow is set
	ind    chan Indication

	processed atomic.Int64

	// stableWait maps our in-flight submissions to their protocol-submit
	// time until uniform stability covers them. Protocol loop only
	// (written in submitNow, settled in OnStable, cleared in OnLeave), so
	// it needs no lock. Nil when metrics are disabled.
	stableWait map[mid.MID]time.Time

	mu       sync.Mutex
	waiters  map[mid.MID]chan struct{}
	leftWith *core.LeaveReason
}

func newSession(m *MultiNode, group uint32) (*session, error) {
	cfg := &m.cfg
	g := int(group)
	s := &session{
		m:       m,
		group:   group,
		ind:     make(chan Indication, cfg.IndicationDepth),
		waiters: make(map[mid.MID]chan struct{}),
		obs:     rt.NewNodeObs(cfg.Metrics, cfg.Self, cfg.N, g),
		gobs:    newGroupObs(cfg.Metrics, cfg.Self, g),
	}
	if s.gobs != nil {
		s.stableWait = make(map[mid.MID]time.Time)
	}
	if cfg.Lifecycle != nil {
		opts := *cfg.Lifecycle
		if opts.Blame == nil && cfg.Fault != nil {
			opts.Blame = cfg.Fault.Blame
		} else if opts.Blame == nil {
			opts.Blame = func([]mid.MID) string { return fmt.Sprintf("group %d", g) }
		}
		s.tracer = lifecycle.NewGroup(cfg.Self, cfg.N, group, opts, cfg.Metrics)
	}
	proc, err := s.newProc(cfg.Join)
	if err != nil {
		return nil, err
	}
	s.proc = proc
	if cfg.BatchWindow > 0 {
		s.coal = rt.NewCoalescer(cfg.BatchWindow, cfg.BatchMax, cfg.BatchBytes,
			m.enqueueWait, s.submitNow, s.obs.Coalesced)
	}
	return s, nil
}

// newProc builds a fresh protocol entity for this group, joining or
// founding, with the session's callbacks, metrics and tracer installed.
func (s *session) newProc(join bool) (*core.Process, error) {
	cfg := s.m.cfg
	node, group := cfg.Self, s.group
	cb := core.Callbacks{
		OnProcess: func(msg *causal.Message) {
			s.processed.Add(1)
			s.mu.Lock()
			if ch, ok := s.waiters[msg.ID]; ok {
				close(ch)
				delete(s.waiters, msg.ID)
			}
			s.mu.Unlock()
			select {
			case s.ind <- Indication{Group: group, Msg: *msg}:
			default: // slow consumer: indication dropped, like a full SAP queue
				s.obs.IndicationDropped()
			}
		},
		// Settles the submit→stable histogram for our own newly stable
		// messages.
		OnStable: s.settleStable,
		OnLeave: func(r core.LeaveReason) {
			s.mu.Lock()
			s.leftWith = &r
			for _, ch := range s.waiters {
				close(ch)
			}
			s.waiters = map[mid.MID]chan struct{}{}
			s.mu.Unlock()
			clear(s.stableWait)
		},
	}
	if f := cfg.JoinInstalled; f != nil {
		cb.OnJoinInstalled = func(stable mid.SeqVector) { f(node, group, stable) }
	}
	if f := cfg.Joined; f != nil {
		cb.OnJoined = func() { f(node, group) }
	}
	if f := cfg.FastForwarded; f != nil {
		cb.OnFastForward = func(of mid.ProcID, to mid.Seq) { f(node, group, of, to) }
	}
	cfg.Config.Join = join
	p, err := core.NewProcess(node, cfg.Config, groupTransport{s}, rt.InstallLifecycle(s.tracer, s.obs.Install(cb)))
	if err != nil {
		return nil, fmt.Errorf("topics: group %d: %w", group, err)
	}
	s.obs.MarkJoining(join)
	return p, nil
}

// groupObs is one group's share of the runtime accounting the shared
// multiObs counters cannot attribute: which group's ticks were skipped,
// and the group's submit→stable latency.
type groupObs struct {
	ticksSkipped *obs.Counter
	submitStable *obs.Histogram
}

func newGroupObs(reg *obs.Registry, self mid.ProcID, group int) *groupObs {
	if reg == nil {
		return nil
	}
	kv := []string{"node", strconv.Itoa(int(self)), "group", strconv.Itoa(group)}
	return &groupObs{
		ticksSkipped: reg.Counter(obs.Labeled("topics_ticks_skipped_total", kv...)),
		submitStable: reg.Histogram(obs.Labeled("topics_submit_to_stable_seconds", kv...), obs.DurationBuckets),
	}
}

// settleStable observes the submit→stable latency of every own submission
// the full-group clean vector newly covers. Protocol loop only.
func (s *session) settleStable(clean mid.SeqVector) {
	if s.gobs == nil || len(s.stableWait) == 0 {
		return
	}
	now := time.Now()
	for id, t0 := range s.stableWait {
		if int(id.Proc) < len(clean) && id.Seq <= clean[id.Proc] {
			s.gobs.submitStable.Observe(now.Sub(t0).Seconds())
			delete(s.stableWait, id)
		}
	}
}

// tick hands round r to one group unless the member is fail-stopped.
// Protocol loop only.
func (s *session) tick(r int) {
	if s.m.Killed() {
		return
	}
	s.obs.MarkRound(r)
	s.proc.StartRound(r)
}

func (s *session) left() (core.LeaveReason, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.leftWith == nil {
		return 0, false
	}
	return *s.leftWith, true
}

// submitNow runs one queued submission. Protocol loop only.
func (s *session) submitNow(sub *rt.Submission) {
	if s.m.Killed() {
		sub.Res <- rt.SubResult{Err: fmt.Errorf("topics: member %d is %w", s.m.cfg.Self, ErrKilled)}
		return
	}
	if _, left := s.left(); left {
		sub.Res <- rt.SubResult{Err: s.errLeft()}
		return
	}
	var id mid.MID
	var err error
	if sub.Causal {
		id, err = s.proc.SubmitCausal(sub.Payload)
	} else {
		id, err = s.proc.Submit(sub.Payload, sub.Deps)
	}
	if err == nil {
		s.mu.Lock()
		s.waiters[id] = sub.Confirm
		s.mu.Unlock()
		if s.gobs != nil {
			s.stableWait[id] = time.Now()
		}
	}
	sub.Res <- rt.SubResult{ID: id, Err: err}
}

// unwait removes a registered confirm waiter, but only if it is still the
// registered one, so a Send abandoned while its message is in flight does
// not leak its map entry (OnProcess and OnLeave cover the other paths).
func (s *session) unwait(id mid.MID, ch chan struct{}) {
	s.mu.Lock()
	if s.waiters[id] == ch {
		delete(s.waiters, id)
	}
	s.mu.Unlock()
}

func (s *session) send(ctx context.Context, payload []byte, deps mid.DepList, causal bool) (mid.MID, error) {
	t0 := time.Now()
	sub := &rt.Submission{
		Payload: payload,
		Deps:    deps,
		Causal:  causal,
		Res:     make(chan rt.SubResult, 1),
		Confirm: make(chan struct{}),
	}
	if s.coal != nil {
		s.coal.Add(sub)
	} else if err := s.m.enqueueWait(func() { s.submitNow(sub) }); err != nil {
		return mid.MID{}, err
	}
	var r rt.SubResult
	select {
	case r = <-sub.Res:
	case <-s.m.stopCh:
		return mid.MID{}, ErrStopped
	case <-ctx.Done():
		return mid.MID{}, ctx.Err()
	}
	if r.Err != nil {
		return mid.MID{}, r.Err
	}
	select {
	case <-sub.Confirm:
	case <-s.m.stopCh:
		s.unwait(r.ID, sub.Confirm)
		return r.ID, ErrStopped
	case <-ctx.Done():
		s.unwait(r.ID, sub.Confirm)
		return r.ID, ctx.Err()
	}
	if _, left := s.left(); left {
		return r.ID, s.errLeft()
	}
	s.obs.ObserveConfirm(t0)
	return r.ID, nil
}

func (s *session) errLeft() error {
	return fmt.Errorf("topics: member %d %w %d", s.m.cfg.Self, ErrLeft, s.group)
}

// demux validates one envelope frame, consults the receive-side fault
// verdict, decodes the PDU into self-owned memory and dispatches it onto
// the protocol loop. pkt is read only during the call; the caller
// may reuse it immediately after — the demux ownership rule.
func (m *MultiNode) demux(pkt []byte) {
	if m.mobs != nil {
		m.mobs.recvDatagrams.Inc()
		m.mobs.recvBytes.Add(int64(len(pkt)))
	}
	if len(pkt) > maxDatagram {
		if m.mobs != nil {
			m.mobs.dropOversize.Inc()
		}
		seq := m.capture.Record(capture.DirIngress, 0, mid.None, capture.DropOversize, 0, nil)
		m.warnf("oversize datagram truncated past %d bytes: dropped%s", maxDatagram, m.capNote(seq))
		return
	}
	group, src, body, err := wire.ParseEnvelope(pkt)
	if err != nil {
		if m.mobs != nil {
			m.mobs.dropEnvelope.Inc()
		}
		seq := m.capture.Record(capture.DirIngress, 0, mid.None, capture.DropShort, 0, pkt)
		m.warnf("unparseable datagram (%d bytes): dropped%s", len(pkt), m.capNote(seq))
		return
	}
	if int64(group) >= int64(len(m.sessions)) {
		if m.mobs != nil {
			m.mobs.dropGroup.Inc()
		}
		seq := m.capture.Record(capture.DirIngress, group, src, capture.DropGroup, 0, body)
		m.warnf("datagram for unhosted group %d (hosting %d): dropped%s", group, len(m.sessions), m.capNote(seq))
		return
	}
	if src < 0 || int(src) >= m.cfg.N {
		if m.mobs != nil {
			m.mobs.dropBadSrc.Inc()
		}
		seq := m.capture.Record(capture.DirIngress, group, src, capture.DropBadSrc, 0, body)
		m.warnf("datagram claims member %d outside group of %d: dropped%s", src, m.cfg.N, m.capNote(seq))
		return
	}
	act := m.cfg.Fault.Recv(src, m.cfg.Self)
	if act.Drop || m.Killed() {
		kinds := act.Kinds
		if !act.Drop {
			kinds = kinds.With(fault.KindCrash) // absorbed by a fail-stopped member
		}
		m.capture.Record(capture.DirIngress, group, src, capture.FaultDrop, kinds, body)
		return
	}
	pdu, err := wire.Unmarshal(body)
	if err != nil {
		if m.mobs != nil {
			m.mobs.dropDecode.Inc()
		}
		seq := m.capture.Record(capture.DirIngress, group, src, capture.DropDecode, 0, body)
		m.warnf("undecodable datagram for group %d: %v%s", group, err, m.capNote(seq))
		return
	}
	s := m.sessions[group]
	v := capture.Delivered
	if act.Faulty() {
		v = m.deliverFaulty(s, src, pdu, body, act)
	} else if !m.enqueue(s, func() {
		if !s.m.Killed() {
			s.proc.Recv(src, pdu)
		}
	}) {
		v = capture.DropInbox
	}
	seq := m.capture.Record(capture.DirIngress, group, src, v, act.Kinds, body)
	if v == capture.DropInbox {
		m.warnf("group %d: inbox full, datagram from member %d dropped (overload omission)%s", group, src, m.capNote(seq))
	}
}

// deliverFaulty dispatches a frame under an injected receive-side delay or
// duplication and returns its capture verdict. Each duplicate decodes its
// own self-owned PDU now, before the caller reuses body.
func (m *MultiNode) deliverFaulty(s *session, src mid.ProcID, pdu wire.PDU, body []byte, act fault.Action) capture.Verdict {
	pdus := []wire.PDU{pdu}
	for i := 0; i < act.Dup; i++ {
		if d, err := wire.Unmarshal(body); err == nil {
			pdus = append(pdus, d)
		}
	}
	recv := func() {
		if m.Killed() {
			return
		}
		for _, p := range pdus {
			s.proc.Recv(src, p)
		}
	}
	if act.Delay > 0 {
		time.AfterFunc(time.Duration(act.Delay), func() { m.enqueue(s, recv) })
	} else if !m.enqueue(s, recv) {
		return capture.DropInbox
	}
	return capture.Classify(capture.Delivered, act)
}

// groupTransport is one group's core.Transport: it frames every PDU once
// behind the group envelope and hands it to the member's egress. Runs on
// the protocol loop.
type groupTransport struct{ s *session }

func (t groupTransport) Send(dst mid.ProcID, pdu wire.PDU) {
	m := t.s.m
	if dst == m.cfg.Self || dst < 0 || int(dst) >= m.cfg.N {
		return
	}
	t.s.emit(dst, pdu)
}

// Broadcast marshals the PDU exactly once; every destination shares the
// same refcounted frame.
func (t groupTransport) Broadcast(pdu wire.PDU) { t.s.emit(mid.None, pdu) }

// emit frames pdu once and ships it to dst, or to every peer when dst is
// mid.None. A fail-stopped member emits nothing.
func (s *session) emit(dst mid.ProcID, pdu wire.PDU) {
	m := s.m
	if m.Killed() {
		return
	}
	hdr := wire.EnvelopeSize(s.group)
	buf := wire.AppendEnvelope(wire.GetBuf(hdr + pdu.EncodedSize())[:0], s.group, m.cfg.Self)
	frame, err := wire.MarshalAppend(buf, pdu)
	if err != nil || !m.checkSize(s.group, dst, frame, pdu) {
		wire.PutBuf(frame)
		return
	}
	f := &sharedFrame{buf: frame}
	f.refs.Store(1) // emit's own hold, released after the fan-out
	body := frame[hdr:]
	if dst != mid.None {
		m.ship(s.group, dst, f, body, true)
	} else {
		m.capture.Record(capture.DirEgress, s.group, mid.None, capture.Sent, 0, body)
		for i := 0; i < m.cfg.N; i++ {
			if q := mid.ProcID(i); q != m.cfg.Self {
				m.ship(s.group, q, f, body, false)
			}
		}
	}
	f.release()
}

// ship sends one frame to dst under its send-side fault verdict, with
// DropFrame folded in as an injected partition: a drop destroys the copy,
// a delay holds it on a timer, duplication sends 1+Dup copies. A unicast
// frame is captured under its verdict; a broadcast's clean copies share
// the one record emit made, and only faulty ones get their own.
func (m *MultiNode) ship(group uint32, dst mid.ProcID, f *sharedFrame, body []byte, unicast bool) {
	act := m.cfg.Fault.Send(m.cfg.Self, dst)
	if m.cfg.DropFrame != nil && m.cfg.DropFrame(group, m.cfg.Self, dst) {
		act.Drop, act.Kinds = true, act.Kinds.With(fault.KindPartition)
	}
	if unicast || act.Faulty() {
		m.capture.Record(capture.DirEgress, group, dst, capture.Classify(capture.Sent, act), act.Kinds, body)
	}
	switch {
	case act.Drop:
	case act.Delay > 0:
		f.refs.Add(1)
		dup := act.Dup
		time.AfterFunc(time.Duration(act.Delay), func() {
			for c := 0; c <= dup; c++ {
				m.link.send(dst, f)
			}
			f.release()
		})
	default:
		for c := 0; c <= act.Dup; c++ {
			m.link.send(dst, f)
		}
	}
}

// checkSize rejects a frame no receiver would accept, at the sender where
// the operator can act on it.
func (m *MultiNode) checkSize(group uint32, dst mid.ProcID, frame []byte, pdu wire.PDU) bool {
	if len(frame) <= maxDatagram {
		return true
	}
	if m.mobs != nil {
		m.mobs.txOversize.Inc()
	}
	seq := m.capture.Record(capture.DirEgress, group, dst, capture.DropOversize, 0, nil)
	m.warnf("oversize %v frame (%d bytes > %d): dropped before send%s", pdu.Kind(), len(frame), maxDatagram, m.capNote(seq))
	return false
}

// sharedFrame is a pooled wire buffer fanned out to several destinations:
// the last reference released returns it to the pool.
type sharedFrame struct {
	buf  []byte
	refs atomic.Int32
}

func (f *sharedFrame) release() {
	if f.refs.Add(-1) == 0 {
		wire.PutBuf(f.buf)
	}
}

// multiObs is the shared (not per-group) accounting: transport traffic,
// demux verdicts and sender behavior. Nil when metrics are disabled.
type multiObs struct {
	recvDatagrams *obs.Counter
	recvBytes     *obs.Counter
	dropEnvelope  *obs.Counter
	dropGroup     *obs.Counter
	dropBadSrc    *obs.Counter
	dropDecode    *obs.Counter
	dropOversize  *obs.Counter
	dropReadErr   *obs.Counter
	inboxDrops    *obs.Counter
	ticksSkipped  *obs.Counter

	txDatagrams *obs.Counter
	txBytes     *obs.Counter
	txErrors    *obs.Counter
	txDropped   *obs.Counter
	txBursts    *obs.Counter
	txOversize  *obs.Counter
}

func newMultiObs(reg *obs.Registry) *multiObs {
	if reg == nil {
		return nil
	}
	return &multiObs{
		recvDatagrams: reg.Counter("topics_recv_datagrams_total"),
		recvBytes:     reg.Counter("topics_recv_bytes_total"),
		dropEnvelope:  reg.Counter("topics_drop_envelope_total"),
		dropGroup:     reg.Counter("topics_drop_group_total"),
		dropBadSrc:    reg.Counter("topics_drop_badsrc_total"),
		dropDecode:    reg.Counter("topics_drop_decode_total"),
		dropOversize:  reg.Counter("topics_drop_oversize_total"),
		dropReadErr:   reg.Counter("topics_drop_readerr_total"),
		inboxDrops:    reg.Counter("topics_shard_dropped_total"), // the member's inbox; name kept for dashboards
		ticksSkipped:  reg.Counter("topics_ticks_skipped_total"),
		txDatagrams:   reg.Counter("topics_send_datagrams_total"),
		txBytes:       reg.Counter("topics_send_bytes_total"),
		txErrors:      reg.Counter("topics_send_errors_total"),
		txDropped:     reg.Counter("topics_send_dropped_total"),
		txBursts:      reg.Counter("topics_send_bursts_total"),
		txOversize:    reg.Counter("topics_send_oversize_total"),
	}
}
