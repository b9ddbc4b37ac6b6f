// Package core implements the urcgc algorithm of Aiello, Pagani and Rossi
// (SIGCOMM 1993): uniform reliable causal group communication built around a
// rotating coordinator, history buffers and the reliable circulation of
// decisions.
//
// Time advances in rounds; a subrun is two rounds. In the first round of a
// subrun every process may broadcast one new user message — which it also
// processes immediately — and sends a REQUEST to the subrun's coordinator
// carrying its last-processed vector, its oldest-waiting vector, and the
// freshest DECISION it holds. In the second round the coordinator folds the
// requests it received into a new DECISION — message stability (history
// cleaning), per-sequence most-updated holders for recovery, silence
// counters whose saturation at K declares crashes, and orphaned-sequence
// gaps whose dependents the group agrees to destroy — and broadcasts it.
// Decisions chain across coordinators, so crash recovery is embedded in
// normal processing: nothing ever blocks, which is the paper's headline
// property.
//
// Dynamic membership rides the same machinery: a (re)starting member
// solicits a live sponsor for a state transfer (JOIN/JOIN-STATE), installs
// the group's stability watermark as its past, catches up through the
// recovery path, and re-enters the view when a coordinator folds its
// join-flagged REQUEST into a decision — turning the suicide rule from
// terminal death into leave, resync, rejoin.
package core

import (
	"errors"
	"fmt"

	"urcgc/internal/causal"
	"urcgc/internal/group"
	"urcgc/internal/history"
	"urcgc/internal/mid"
	"urcgc/internal/waitlist"
	"urcgc/internal/wire"
)

// Config carries the protocol parameters of one group.
type Config struct {
	// N is the group cardinality.
	N int
	// K is the number of retries before a silent process is declared
	// crashed, and before a process that hears no coordinator leaves.
	K int
	// R is the number of unsuccessful recovery attempts after which a
	// process autonomously leaves the group. The paper requires R > 2K+f
	// for no live process to be evicted while chasing a crashed
	// most-updated holder; Validate enforces R > 2K as the f=0 baseline.
	R int
	// HistoryThreshold is the distributed flow-control threshold of
	// Section 6: a process whose history holds at least this many messages
	// defers generating new ones. Zero disables flow control. The paper
	// uses 8n.
	HistoryThreshold int
	// ThresholdPerAlive, when positive, overrides HistoryThreshold with a
	// view-scaled budget: generation defers while the history holds at
	// least ThresholdPerAlive times the number of believed-alive members.
	// The paper's 8n rule is really about the live group — stability spans
	// only the members the chain must cover — so after crashes (and before
	// rejoins) a fixed 8N both under- and over-throttles. 8 reproduces the
	// paper's setting against the live view.
	ThresholdPerAlive int
	// RecoveryBatch caps how many messages of one sequence a single
	// RECOVER asks for. Zero means DefaultRecoveryBatch.
	RecoveryBatch int
	// BatchMax caps how many queued user messages one subrun may
	// broadcast. Zero or one keeps the classic one-Data-per-subrun
	// schedule; larger values drain up to BatchMax messages per subrun as
	// DataBatch frames, amortizing the subrun's control traffic
	// (REQUEST/DECISION) over the whole batch the same way Table 1
	// amortizes it over a subrun.
	BatchMax int
	// BatchBytes is the encoded-size budget of one DataBatch frame; a
	// drained batch is split into frames no larger than this, so batching
	// never manufactures oversize datagrams. Zero means DefaultBatchBytes.
	BatchBytes int
	// SelfExclusion enables the two autonomous-leave rules (suicide is
	// always on): leaving after R failed recoveries and after K subruns
	// without hearing any believed-alive coordinator. Experiments that
	// model more consecutive coordinator crashes than K disable it.
	SelfExclusion bool
	// Join starts the process as a joiner instead of a founding member: it
	// solicits a live sponsor for a state transfer (the group's stability
	// watermark becomes its installed past), then enters the view through
	// the regular decision circulation by flagging its requests. Until a
	// decision admits it, it never coordinates, never generates messages
	// and never self-excludes. This is how a member that committed suicide
	// returns: leave, resync, rejoin.
	Join bool
	// Observers marks diffusion-group members (Section 3): an observer
	// processes every message and reports to coordinators — so stability
	// waits for it and atomicity covers it — but it never generates
	// messages and never becomes coordinator. Nil means a pure peer group.
	Observers []bool
}

// IsObserver reports whether member i is an observer.
func (c Config) IsObserver(i mid.ProcID) bool {
	return i >= 0 && int(i) < len(c.Observers) && c.Observers[i]
}

// DefaultRecoveryBatch bounds one RECOVER's per-sequence ask.
const DefaultRecoveryBatch = 16

// DefaultBatchBytes bounds one DataBatch frame: it fits a 64 KiB UDP
// datagram with headroom for the runtime's framing.
const DefaultBatchBytes = 60 * 1024

// DefaultBatchMax is the per-subrun drain the runtime adopts when its
// coalescing sender is enabled without an explicit BatchMax.
const DefaultBatchMax = 32

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("core: N = %d, need at least 1", c.N)
	}
	if c.K < 1 {
		return fmt.Errorf("core: K = %d, need at least 1", c.K)
	}
	if c.R < 1 {
		return fmt.Errorf("core: R = %d, need at least 1", c.R)
	}
	if c.SelfExclusion && c.R <= 2*c.K {
		return fmt.Errorf("core: R = %d must exceed 2K = %d (paper: R > 2K+f)", c.R, 2*c.K)
	}
	if c.HistoryThreshold < 0 || c.ThresholdPerAlive < 0 || c.RecoveryBatch < 0 || c.BatchMax < 0 || c.BatchBytes < 0 {
		return fmt.Errorf("core: negative threshold")
	}
	if c.Join && c.N < 2 {
		return fmt.Errorf("core: a joiner needs at least one live sponsor (N >= 2)")
	}
	if c.Observers != nil {
		if len(c.Observers) != c.N {
			return fmt.Errorf("core: %d observer flags for group of %d", len(c.Observers), c.N)
		}
		peers := 0
		for _, o := range c.Observers {
			if !o {
				peers++
			}
		}
		if peers == 0 {
			return fmt.Errorf("core: a diffusion group needs at least one non-observer")
		}
	}
	return nil
}

func (c Config) recoveryBatch() mid.Seq {
	if c.RecoveryBatch > 0 {
		return mid.Seq(c.RecoveryBatch)
	}
	return DefaultRecoveryBatch
}

func (c Config) batchMax() int {
	if c.BatchMax > 1 {
		return c.BatchMax
	}
	return 1
}

func (c Config) batchBytes() int {
	if c.BatchBytes > 0 {
		return c.BatchBytes
	}
	return DefaultBatchBytes
}

// LeaveReason says why a process halted.
type LeaveReason int

// Leave reasons.
const (
	// Suicide: the process found itself declared crashed in a decision
	// (it is alive but faulty — e.g. its sends are being omitted) and
	// removed itself, as the protocol requires.
	Suicide LeaveReason = iota
	// RecoveryExhausted: R consecutive recovery attempts made no progress.
	RecoveryExhausted
	// CoordinatorSilence: no decision was received from K consecutive
	// believed-alive coordinators.
	CoordinatorSilence
)

// String implements fmt.Stringer.
func (r LeaveReason) String() string {
	switch r {
	case Suicide:
		return "suicide"
	case RecoveryExhausted:
		return "recovery-exhausted"
	case CoordinatorSilence:
		return "coordinator-silence"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// Transport is how a process reaches its peers. Send to self is never
// issued. Broadcast must reach every other process in the group — including
// ones believed crashed, which may be alive-but-faulty and must be able to
// learn they were excluded.
type Transport interface {
	Send(dst mid.ProcID, pdu wire.PDU)
	Broadcast(pdu wire.PDU)
}

// Callbacks surface protocol events to the embedding runtime. Any field may
// be nil. Every callback runs synchronously on the goroutine driving the
// process; the simulator path leaves the observability fields nil and is
// untouched by them.
type Callbacks struct {
	// OnGenerate is invoked when Submit accepts a user message, before it
	// is queued for its broadcast round — the "generated" lifecycle stage.
	OnGenerate func(m *causal.Message)
	// OnBroadcast is invoked when a queued user message actually leaves
	// the outbox onto the wire (broadcast may lag generation by rounds:
	// at most BatchMax per subrun, deferred further by flow control).
	OnBroadcast func(m *causal.Message)
	// OnBatchBroadcast is invoked once per multi-message DataBatch frame
	// broadcast, with the message count and encoded frame size. The
	// per-message OnBroadcast still fires for every member; singleton
	// sends travel as classic Data and never reach this callback.
	OnBatchBroadcast func(msgs, bytes int)
	// OnWait is invoked when a received message parks in the waiting list
	// because its causal dependencies are not yet satisfied. missing
	// lists the unmet dependencies; it is backed by a scratch buffer
	// reused across calls, so the callee must clone it to retain it.
	OnWait func(m *causal.Message, missing mid.DepList)
	// OnStable is invoked when a full-group decision advances the local
	// stability watermark: every message (q, s) with s <= clean[q] is now
	// uniformly stable (processed at every covered live member). The
	// callee owns clean.
	OnStable func(clean mid.SeqVector)
	// OnProcess is invoked exactly once per message this process
	// processes, in processing (causal) order.
	OnProcess func(m *causal.Message)
	// OnDiscard is invoked when a waiting message is destroyed by the
	// group's orphaned-sequence agreement.
	OnDiscard func(m *causal.Message)
	// OnLeave is invoked once when the process halts itself.
	OnLeave func(reason LeaveReason)
	// OnDecision is invoked for every fresh decision applied.
	OnDecision func(d *wire.Decision)
	// OnRoundEnd is invoked after every StartRound with the buffer gauges
	// of the moment — the live counterpart of the Figure 6 history curves.
	OnRoundEnd func(o RoundObservation)
	// OnRecover is invoked for every RECOVER this process sends: holder is
	// the most-updated member asked, ranges how many sequence ranges.
	OnRecover func(holder mid.ProcID, ranges int)
	// OnRetransmit is invoked for every RECOVER this process answers from
	// history: requester is who asked, msgs how many messages were resent.
	OnRetransmit func(requester mid.ProcID, msgs int)
	// OnCrashDeclared is invoked when this process's view transitions a
	// member from believed-alive to declared-crashed, whether it made the
	// declaration as coordinator or adopted it from a decision.
	OnCrashDeclared func(q mid.ProcID)
	// OnSubrunStart is invoked at the opening of every subrun with the
	// subrun index and the coordinator this process will report to — the
	// local token-pass event of the rotating-coordinator scheme. A health
	// layer watching this sees the token position advance (or stall).
	OnSubrunStart func(subrun int64, coord mid.ProcID)
	// OnViewChange is invoked whenever the local view changes composition —
	// members declared crashed, or a joiner admitted back — after the
	// per-member OnCrashDeclared/OnMemberJoined calls. alive is a fresh
	// copy the callee owns.
	OnViewChange func(alive []bool)
	// OnMemberJoined is invoked when this process's view re-admits another
	// member — through a decision, or at the coordinator through the
	// join-flagged request that produced it — after the stale bookkeeping
	// of the member's previous incarnation has been dropped.
	OnMemberJoined func(q mid.ProcID)
	// OnJoinInstalled is invoked on a joiner when the sponsor's state
	// transfer is installed, before any message is processed: stable is the
	// stability watermark the process starts from (everything at or below
	// it is uniformly stable and will never be processed here). The callee
	// owns stable.
	OnJoinInstalled func(stable mid.SeqVector)
	// OnJoined is invoked on a joiner when a decision admits it into the
	// view and it resumes full protocol duty.
	OnJoined func()
	// OnFastForward is invoked when a recovery answer proves a prefix of
	// q's sequence was compacted as uniformly stable (nobody retains the
	// bytes) and the process skips its frontier to "to" instead of waiting
	// forever — without per-message OnProcess calls. Only a joiner syncing
	// against a moving stability watermark hits this path.
	OnFastForward func(q mid.ProcID, to mid.Seq)
}

// RoundObservation is the per-round gauge sample handed to OnRoundEnd.
type RoundObservation struct {
	Round      int // the round just executed
	HistoryLen int // history buffer length
	WaitingLen int // waiting-list length
	Pending    int // user messages queued, deferred by rounds or flow control
}

// Process is one urcgc protocol entity. It is driven by StartRound and
// Recv from a single goroutine (the simulator loop or the runtime's node
// goroutine); it is not safe for concurrent use.
//
// Concurrency contract: EVERY method — including the read accessors
// Running, View, HistoryLen, History, WaitingLen, Processed and
// PendingSubmissions, and reads of the exported Stats field — must run on
// the goroutine that drives StartRound/Recv. Calling them from any other
// goroutine races with applyDecision and cascade mutating the same state.
// In the live runtime that goroutine is the member's protocol loop: off-loop
// readers go through topics.MultiNode.Snapshot/Status, which hand the
// Process to a closure inside the loop. The deterministic
// simulator is single-goroutine, so tests and experiments that call
// accessors between Run steps are within the contract.
type Process struct {
	id  mid.ProcID
	cfg Config
	cb  Callbacks
	tp  Transport

	tracker *causal.Tracker
	hist    *history.History
	wait    *waitlist.List
	view    *group.View

	running  bool
	nextSeq  mid.Seq
	outbox   []*causal.Message // user messages awaiting their send round
	lastDec  *wire.Decision    // freshest decision held
	requests map[mid.ProcID]*wire.Request

	subrun            int64 // current subrun index
	missedCoords      int   // consecutive subruns with no decision from a believed-alive coordinator
	decisionThisSub   bool  // a decision for the previous subrun arrived
	recoveryFailures  int
	lastProgress      uint64 // processed-sum at the last decision, for the R rule
	recoveryRequested bool

	// Join-protocol state. A founding member is born synced and never
	// joining. A joiner stays joining until a decision admits it; synced
	// flips when the sponsor's state transfer is installed; joinAligning
	// keeps nextSeq chasing MaxProcessed[self] until the first post-join
	// Submit, so the new incarnation resumes its sequence past everything
	// any member holds of the old one.
	joining      bool
	synced       bool
	joinAligning bool
	// subrunBias aligns the local round clock to the group's subrun
	// numbering: a restarted member's rounds restart at zero, but its
	// requests must name the subrun its peers are in to be folded.
	subrunBias int64

	// missScratch backs the missing-dependency list handed to OnWait, so
	// steady-state tracing costs no allocation per waiting message.
	missScratch mid.DepList

	// lastClean retains the stability watermark of the freshest full-group
	// decision applied, for the StableTo accessor (health and status
	// reporting). Preallocated; copied into, never re-allocated.
	lastClean mid.SeqVector

	// Counters for reports and tests.
	Stats Stats
}

// Stats counts externally observable protocol activity.
type Stats struct {
	Generated   int // user messages this process originated
	ProcessedN  int // messages processed (own and others')
	Discarded   int // messages destroyed by agreement
	Recoveries  int // RECOVER PDUs sent
	Retransmits int // RETRANSMIT PDUs answered
	Decisions   int // decisions computed as coordinator
	Duplicates  int // duplicate or stale DATA received
	Batches     int // multi-message DataBatch frames broadcast

	Sponsored    int // JOIN-STATE transfers served to joiners
	FastForwards int // compacted recovery gaps skipped while syncing
}

// NewProcess returns a protocol entity for process id. The transport must
// be non-nil; callbacks may be zero.
func NewProcess(id mid.ProcID, cfg Config, tp Transport, cb Callbacks) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if int(id) >= cfg.N || id < 0 {
		return nil, fmt.Errorf("core: process id %d outside group of %d", id, cfg.N)
	}
	if tp == nil {
		return nil, fmt.Errorf("core: nil transport")
	}
	return &Process{
		id:        id,
		cfg:       cfg,
		cb:        cb,
		tp:        tp,
		tracker:   causal.NewTracker(cfg.N),
		hist:      history.New(cfg.N),
		wait:      waitlist.New(cfg.N),
		view:      group.NewView(cfg.N),
		running:   true,
		joining:   cfg.Join,
		synced:    !cfg.Join,
		requests:  make(map[mid.ProcID]*wire.Request),
		lastClean: mid.NewSeqVector(cfg.N),
	}, nil
}

// ID returns the process identifier.
func (p *Process) ID() mid.ProcID { return p.id }

// Running reports whether the process is still executing the protocol.
// Loop-goroutine-only, like every accessor (see the concurrency contract).
func (p *Process) Running() bool { return p.running }

// Joining reports whether the process is still in the join protocol — not
// yet admitted into the view by a decision. Loop-goroutine-only.
func (p *Process) Joining() bool { return p.joining }

// View returns the process's local group view. Loop-goroutine-only, and
// the returned pointer must not be retained past the calling closure.
func (p *Process) View() *group.View { return p.view }

// HistoryLen returns the current history buffer length (Figure 6).
// Loop-goroutine-only.
func (p *Process) HistoryLen() int { return p.hist.Len() }

// History exposes the history buffer for read access (recovery answers and
// the client-server reply layer read processed messages from it). Callers
// must not mutate it. Loop-goroutine-only.
func (p *Process) History() *history.History { return p.hist }

// WaitingLen returns the current waiting-list length. Loop-goroutine-only.
func (p *Process) WaitingLen() int { return p.wait.Len() }

// Processed returns the last-processed vector. Callers must not modify it,
// and must Clone it before letting it escape the loop goroutine.
func (p *Process) Processed() mid.SeqVector { return p.tracker.Processed() }

// PendingSubmissions returns the number of user messages queued but not yet
// broadcast (they wait for their round or for flow control).
// Loop-goroutine-only.
func (p *Process) PendingSubmissions() int { return len(p.outbox) }

// Subrun returns the index of the current subrun. Loop-goroutine-only.
func (p *Process) Subrun() int64 { return p.subrun }

// CurrentCoordinator returns the coordinator of the current subrun under
// this process's view. Loop-goroutine-only.
func (p *Process) CurrentCoordinator() mid.ProcID { return p.coordinator(p.subrun) }

// StableTo returns the stability watermark of the freshest full-group
// decision applied: every (q, s) with s <= StableTo()[q] is uniformly
// stable. All-zero until the first full-group decision. Callers must not
// modify it, and must Clone it before letting it escape the loop
// goroutine.
func (p *Process) StableTo() mid.SeqVector { return p.lastClean }

// Submit queues a user message. Its causal dependencies are the explicit
// deps given (each must already be processed locally — a process can only
// causally relate messages it has seen, Definition 3.1) plus, implicitly,
// the sender's previous message. The message is broadcast at the next
// first-round of a subrun permitted by flow control, one per round at most.
// The assigned MID is returned.
func (p *Process) Submit(payload []byte, deps mid.DepList) (mid.MID, error) {
	if !p.running {
		return mid.MID{}, fmt.Errorf("core: process %d has left the group", p.id)
	}
	if p.joining {
		return mid.MID{}, fmt.Errorf("core: process %d is still joining", p.id)
	}
	if p.joinAligning {
		// Post-admission, the own sequence must catch up first: other
		// members may hold messages of the previous incarnation up to
		// nextSeq, and generating before processing them would fork the
		// sequence at duplicate numbers.
		if have := p.tracker.LastProcessed(p.id); have < p.nextSeq {
			return mid.MID{}, fmt.Errorf("core: process %d is resyncing its own sequence (%d of %d)", p.id, have, p.nextSeq)
		}
		p.joinAligning = false
	}
	if p.cfg.IsObserver(p.id) {
		return mid.MID{}, fmt.Errorf("core: observer %d cannot generate messages", p.id)
	}
	// Reject here, at the protocol boundary, anything the 16-bit wire
	// prefixes cannot carry — before the encoder could wrap it silently.
	if len(payload) > wire.MaxPayload {
		return mid.MID{}, fmt.Errorf("core: payload of %d bytes: %w", len(payload), wire.ErrTooLarge)
	}
	if len(deps) > wire.MaxDeps {
		return mid.MID{}, fmt.Errorf("core: %d dependencies: %w", len(deps), wire.ErrTooLarge)
	}
	for _, d := range deps {
		if d.IsZero() {
			return mid.MID{}, fmt.Errorf("core: zero dependency")
		}
		if d.Proc == p.id {
			return mid.MID{}, fmt.Errorf("core: own-sequence dependencies are implicit")
		}
		if p.tracker.LastProcessed(d.Proc) < d.Seq {
			return mid.MID{}, fmt.Errorf("core: dependency %v not processed locally", d)
		}
	}
	p.nextSeq++
	m := &causal.Message{
		ID:      mid.MID{Proc: p.id, Seq: p.nextSeq},
		Deps:    deps.Clone().Canonical(),
		Payload: payload,
	}
	p.outbox = append(p.outbox, m)
	if p.cb.OnGenerate != nil {
		p.cb.OnGenerate(m)
	}
	return m.ID, nil
}

// SubmitCausal queues a user message depending on the latest message this
// process has processed from every other live sequence — the conservative
// temporal interpretation of causality (what CBCAST enforces implicitly).
func (p *Process) SubmitCausal(payload []byte) (mid.MID, error) {
	var deps mid.DepList
	for q := 0; q < p.cfg.N; q++ {
		qp := mid.ProcID(q)
		if qp == p.id {
			continue
		}
		if s := p.tracker.LastProcessed(qp); s > 0 {
			deps = append(deps, mid.MID{Proc: qp, Seq: s})
		}
	}
	return p.Submit(payload, deps)
}

// CoordinatorOf returns the coordinator of subrun s under view v: the first
// believed-alive process at or cyclically after s mod n. If the view is
// empty it falls back to s mod n.
func CoordinatorOf(s int64, v *group.View) mid.ProcID {
	return coordinatorOf(s, v, nil)
}

// coordinatorOf additionally skips observer members (diffusion groups):
// only peers rotate through the coordinator role.
func coordinatorOf(s int64, v *group.View, observers []bool) mid.ProcID {
	n := int64(v.N())
	start := mid.ProcID(s % n)
	for i := int64(0); i < n; i++ {
		c := mid.ProcID((int64(start) + i) % n)
		if int(c) < len(observers) && observers[c] {
			continue
		}
		if v.Alive(c) {
			return c
		}
	}
	return start
}

// coordinator returns the coordinator of subrun s from this process's view.
func (p *Process) coordinator(s int64) mid.ProcID {
	return coordinatorOf(s, p.view, p.cfg.Observers)
}

// StartRound drives the process at the beginning of global round r. Even
// rounds open a subrun (request phase); odd rounds are the decision phase.
func (p *Process) StartRound(r int) {
	if !p.running {
		return
	}
	if r%2 == 0 {
		p.startSubrun(int64(r/2) + p.subrunBias)
	} else {
		p.decisionPhase()
	}
	if p.cb.OnRoundEnd != nil && p.running {
		p.cb.OnRoundEnd(RoundObservation{
			Round:      r,
			HistoryLen: p.hist.Len(),
			WaitingLen: p.wait.Len(),
			Pending:    len(p.outbox),
		})
	}
}

func (p *Process) startSubrun(s int64) {
	// Close the books on the previous subrun: did its coordinator reach us?
	// A joiner expects nothing yet and counts no silence.
	if s > 0 && !p.joining {
		p.accountCoordinatorSilence(s - 1)
		if !p.running {
			return // the silence rule made us leave
		}
	}
	p.subrun = s
	p.decisionThisSub = false
	p.requests = make(map[mid.ProcID]*wire.Request)

	if p.joining {
		p.joinSubrun(s)
		return
	}

	// Broadcast queued user messages, unless flow control defers: at most
	// BatchMax per subrun (classically one), split into byte-budgeted
	// DataBatch frames when more than one leaves at once.
	threshold := p.cfg.HistoryThreshold
	if p.cfg.ThresholdPerAlive > 0 {
		threshold = p.cfg.ThresholdPerAlive * p.view.AliveCount()
	}
	if len(p.outbox) > 0 && (threshold == 0 || p.hist.Len() < threshold) {
		p.broadcastOutbox()
	}

	// Send the REQUEST to the subrun's coordinator.
	coord := p.coordinator(s)
	if p.cb.OnSubrunStart != nil {
		p.cb.OnSubrunStart(s, coord)
	}
	req := p.buildRequest(s)
	if coord == p.id {
		p.requests[p.id] = req
	} else {
		p.tp.Send(coord, req)
	}
}

// joinSubrun is a joiner's request phase. Before the state transfer it only
// solicits a sponsor — it can process nothing until history bases and the
// processed vector are installed. After it, it reports like any member,
// flagging the request so the coordinator re-admits it, but it never acts
// as coordinator and never generates messages.
func (p *Process) joinSubrun(s int64) {
	if !p.synced {
		p.tp.Send(p.sponsorCandidate(s), &wire.Join{Joiner: p.id})
		return
	}
	coord := p.coordinator(s)
	if p.cb.OnSubrunStart != nil {
		p.cb.OnSubrunStart(s, coord)
	}
	if coord == p.id {
		// Our (stale) view rotated the token onto us, but nobody treats a
		// joiner as coordinator before a decision admits it; hold the
		// report and try the next rotation.
		return
	}
	req := p.buildRequest(s)
	req.Join = true
	p.tp.Send(coord, req)
}

// sponsorCandidate rotates the state-transfer solicitation over the other
// members, so a joiner is never stuck soliciting a crashed sponsor.
func (p *Process) sponsorCandidate(s int64) mid.ProcID {
	n := int64(p.cfg.N)
	c := mid.ProcID(s % n)
	if c == p.id {
		c = mid.ProcID((s + 1) % n)
	}
	return c
}

// batchFrameOverhead is a DataBatch frame's kind(1) + count(2).
const batchFrameOverhead = 3

// msgBodySize is one message's encoded body: mid(8) + depCount(2) +
// deps(8 each) + payloadLen(2) + payload.
func msgBodySize(m *causal.Message) int {
	return 8 + 2 + 8*len(m.Deps) + 2 + len(m.Payload)
}

// broadcastOutbox drains up to BatchMax queued messages onto the wire. A
// single message travels as classic Data (wire-compatible with unbatched
// peers); a larger drain is split greedily into DataBatch frames whose
// encoded size stays within BatchBytes. Each broadcast message is also
// processed locally, exactly as the unbatched path did.
func (p *Process) broadcastOutbox() {
	take := p.cfg.batchMax()
	if take > len(p.outbox) {
		take = len(p.outbox)
	}
	taken := p.outbox[:take]
	p.outbox = p.outbox[take:]
	budget := p.cfg.batchBytes()
	for start := 0; start < len(taken); {
		// Grow the frame while it fits the budget; a message that alone
		// exceeds it still travels (Submit bounds fields, and the
		// transport counts and rejects oversize frames).
		size := batchFrameOverhead + msgBodySize(taken[start])
		end := start + 1
		for end < len(taken) && size+msgBodySize(taken[end]) <= budget {
			size += msgBodySize(taken[end])
			end++
		}
		p.broadcastFrame(taken[start:end], size)
		start = end
	}
	p.cascade()
}

func (p *Process) broadcastFrame(batch []*causal.Message, encoded int) {
	if len(batch) == 1 {
		m := batch[0]
		p.Stats.Generated++
		p.tp.Broadcast(&wire.Data{Msg: *m})
		if p.cb.OnBroadcast != nil {
			p.cb.OnBroadcast(m)
		}
		p.processMsg(m)
		return
	}
	// The simulator's transport retains PDUs by reference, so every frame
	// gets a freshly allocated slice — never a reused scratch buffer.
	pdu := &wire.DataBatch{Msgs: make([]causal.Message, len(batch))}
	for i, m := range batch {
		pdu.Msgs[i] = *m
	}
	p.Stats.Generated += len(batch)
	p.Stats.Batches++
	p.tp.Broadcast(pdu)
	if p.cb.OnBatchBroadcast != nil {
		p.cb.OnBatchBroadcast(len(batch), encoded)
	}
	for _, m := range batch {
		if p.cb.OnBroadcast != nil {
			p.cb.OnBroadcast(m)
		}
		p.processMsg(m)
	}
}

func (p *Process) buildRequest(s int64) *wire.Request {
	return &wire.Request{
		Sender:        p.id,
		Subrun:        s,
		LastProcessed: p.tracker.Processed().Clone(),
		Waiting:       p.wait.OldestWaiting(),
		Prev:          p.lastDec, // shared immutable; never mutated after build
	}
}

func (p *Process) accountCoordinatorSilence(s int64) {
	if p.decisionThisSub {
		p.missedCoords = 0
		return
	}
	if !p.view.Alive(p.coordinator(s)) {
		return // we expected nothing from a crashed coordinator
	}
	p.missedCoords++
	if p.cfg.SelfExclusion && p.missedCoords >= p.cfg.K {
		p.leave(CoordinatorSilence)
	}
}

func (p *Process) decisionPhase() {
	if p.joining || p.coordinator(p.subrun) != p.id {
		return
	}
	// Fold in our own (fresh) report.
	p.requests[p.id] = p.buildRequest(p.subrun)
	d := p.computeDecision()
	p.Stats.Decisions++
	p.decisionThisSub = true
	p.missedCoords = 0
	p.tp.Broadcast(d)
	p.applyDecision(d)
}

// Recv handles one delivered PDU.
func (p *Process) Recv(src mid.ProcID, pdu wire.PDU) {
	if !p.running {
		return
	}
	if p.joining && !p.synced {
		// Before the state transfer nothing is processable: history bases,
		// the processed vector and the own-sequence resume point are not
		// installed yet. Only the sponsor's answer matters.
		if js, ok := pdu.(*wire.JoinState); ok {
			p.installJoinState(js)
		}
		return
	}
	switch v := pdu.(type) {
	case *wire.Data:
		p.handleData(&v.Msg)
	case *wire.DataBatch:
		// One inbox event ingests the whole batch. Messages appear in
		// generation order, so intra-batch causality (each implicitly
		// depending on the sender's previous) resolves in a single pass.
		for i := range v.Msgs {
			p.handleData(&v.Msgs[i])
		}
	case *wire.Request:
		if v.Subrun == p.subrun && p.coordinator(p.subrun) == p.id {
			p.requests[v.Sender] = v
		} else if v.Prev != nil {
			// Not ours to coordinate, but the embedded decision may still
			// be fresher than what we hold.
			p.noteDecision(v.Prev)
		}
	case *wire.Decision:
		p.handleDecision(v)
	case *wire.Recover:
		p.handleRecover(v)
	case *wire.Retransmit:
		p.handleRetransmit(v)
	case *wire.Join:
		p.handleJoin(v)
	case *wire.JoinState:
		// Duplicate sponsor answer after installation; stale by definition.
	}
}

// handleJoin answers a joiner's solicitation with a state transfer: the
// local stability watermark (the joiner's installable past — everything at
// or below it is uniformly stable, so a fresh history may start above it),
// the processed vector (the catch-up target), the resume point for the
// joiner's own sequence, and the freshest decision held (the joiner's entry
// into the circulation). The transfer is a snapshot of vectors, not bytes:
// the actual messages flow through the existing recovery path.
func (p *Process) handleJoin(j *wire.Join) {
	if p.joining || j.Joiner == p.id || int(j.Joiner) >= p.cfg.N || j.Joiner < 0 {
		return
	}
	p.Stats.Sponsored++
	p.tp.Send(j.Joiner, &wire.JoinState{
		Sponsor:   p.id,
		Resume:    p.tracker.LastProcessed(j.Joiner),
		Stable:    p.lastClean.Clone(),
		Processed: p.tracker.Processed().Clone(),
		Prev:      p.lastDec,
	})
}

// installJoinState bootstraps a joiner from the sponsor's snapshot. The
// stability watermark becomes the installed past — processed vector,
// history purge bases and the local clean watermark all start there — and
// the sponsor's view of our old sequence becomes the resume point, so new
// messages continue it instead of colliding with it. The embedded decision
// then pulls the joiner into the circulation: its recovery targets fetch
// everything between the watermark and the group's frontier.
func (p *Process) installJoinState(js *wire.JoinState) {
	if len(js.Stable) != p.cfg.N || len(js.Processed) != p.cfg.N {
		return // not our group's geometry; keep soliciting
	}
	if err := p.tracker.Install(js.Stable); err != nil {
		return
	}
	if err := p.hist.InstallBases(js.Stable); err != nil {
		// Unreachable: nothing is processed (or stored) pre-sync, so the
		// history is empty. A failure here is a protocol bug.
		panic(fmt.Sprintf("core: process %d: %v", p.id, err))
	}
	copy(p.lastClean, js.Stable)
	p.nextSeq = js.Resume
	if floor := js.Stable[p.id]; p.nextSeq < floor {
		p.nextSeq = floor
	}
	p.synced = true
	p.joinAligning = true
	if p.cb.OnJoinInstalled != nil {
		p.cb.OnJoinInstalled(js.Stable.Clone())
	}
	if js.Prev != nil {
		p.handleDecision(js.Prev)
	}
}

// becomeJoined ends the join: a decision's view includes us again, so we
// resume full duty — coordinating, reporting, and (once the own sequence
// caught up) generating. Counters restart so the self-exclusion rules
// measure the new incarnation, not the sync.
func (p *Process) becomeJoined() {
	p.joining = false
	p.decisionThisSub = true
	p.missedCoords = 0
	p.recoveryFailures = 0
	if p.cb.OnJoined != nil {
		p.cb.OnJoined()
	}
}

// handleRetransmit ingests a recovery answer. Ranges the responder reports
// compacted were purged there as uniformly stable — every live member
// processed them — so a process that cannot fetch the bytes anywhere skips
// its frontier over the gap instead of waiting forever. Only a joiner
// syncing against a moving stability watermark can hit that path: a live
// in-view member is covered by every full-group chain, so stability never
// outruns what it has processed. The retained messages then flow through
// the normal data path.
func (p *Process) handleRetransmit(r *wire.Retransmit) {
	forwarded := false
	for _, c := range r.Compacted {
		if int(c.Proc) >= p.cfg.N || c.Proc < 0 || c.To <= p.tracker.LastProcessed(c.Proc) {
			continue // out of range, or already past the gap
		}
		p.hist.Skip(c.Proc, c.To)
		p.tracker.FastForward(c.Proc, c.To)
		p.Stats.FastForwards++
		forwarded = true
		if p.cb.OnFastForward != nil {
			p.cb.OnFastForward(c.Proc, c.To)
		}
	}
	if forwarded {
		// Waiting copies at or below the new frontier are obsolete
		// duplicates now; left in place they would present as "ready" and
		// trip the tracker's contiguity check. Above it, messages may have
		// become processable.
		p.wait.DropStale(p.tracker.Processed())
		p.cascade()
	}
	for _, m := range r.Msgs {
		p.handleData(m)
	}
}

func (p *Process) handleData(m *causal.Message) {
	if m.Validate() != nil {
		return // malformed; a real deployment would log this
	}
	if m.ID.Seq <= p.tracker.LastProcessed(m.ID.Proc) || p.wait.Has(m.ID) {
		p.Stats.Duplicates++
		return
	}
	if p.tracker.Doomed(m) {
		p.Stats.Duplicates++
		return // destroyed by agreement; never process, never wait
	}
	if p.tracker.Ready(m) {
		p.processMsg(m)
		p.cascade()
		return
	}
	p.wait.Add(m)
	if p.cb.OnWait != nil {
		p.cb.OnWait(m, p.missingDeps(m))
	}
}

// missingDeps returns m's currently unmet effective dependencies. The
// result reuses a scratch buffer: it is valid only until the next call,
// and callees must clone it to retain it (the OnWait contract).
func (p *Process) missingDeps(m *causal.Message) mid.DepList {
	missing := p.missScratch[:0]
	for _, d := range m.Deps {
		if p.tracker.LastProcessed(d.Proc) < d.Seq {
			missing = append(missing, d)
		}
	}
	if prev := m.ID.Prev(); !prev.IsZero() && p.tracker.LastProcessed(prev.Proc) < prev.Seq && !missing.Covers(prev) {
		missing = append(missing, prev)
	}
	missing = missing.Canonical()
	p.missScratch = missing
	return missing
}

func (p *Process) processMsg(m *causal.Message) {
	if err := p.tracker.Process(m); err != nil {
		// Ordering violations are protocol bugs; surface loudly.
		panic(fmt.Sprintf("core: process %d: %v", p.id, err))
	}
	if err := p.hist.Store(m); err != nil {
		panic(fmt.Sprintf("core: process %d: %v", p.id, err))
	}
	p.Stats.ProcessedN++
	if p.cb.OnProcess != nil {
		p.cb.OnProcess(m)
	}
}

func (p *Process) cascade() {
	for {
		m := p.wait.NextReady(p.tracker)
		if m == nil {
			return
		}
		p.wait.Remove(m.ID)
		p.processMsg(m)
	}
}

// noteDecision keeps the freshest decision seen without applying it (used
// for decisions gleaned from forwarded requests).
func (p *Process) noteDecision(d *wire.Decision) {
	if p.lastDec == nil || d.Subrun > p.lastDec.Subrun {
		p.lastDec = d
	}
}

func (p *Process) handleDecision(d *wire.Decision) {
	if p.lastDec != nil && d.Subrun <= p.lastDec.Subrun {
		return // stale
	}
	if d.Subrun == p.subrun {
		p.decisionThisSub = true
		p.missedCoords = 0
	}
	p.applyDecision(d)
}

func (p *Process) applyDecision(d *wire.Decision) {
	p.lastDec = d
	if p.cb.OnDecision != nil {
		p.cb.OnDecision(d)
	}

	// Group composition: adopt the decision's membership verdicts.
	p.adoptMask(d.Alive)
	if p.joining && d.Subrun > p.subrun {
		// Chase the group's subrun numbering: a restarted member's round
		// clock restarts at zero, and requests naming a stale subrun are
		// never folded.
		p.subrunBias += d.Subrun - p.subrun
		p.subrun = d.Subrun
	}
	if p.joinAligning && int(p.id) < len(d.MaxProcessed) && d.MaxProcessed[p.id] > p.nextSeq {
		// Some member holds more of our previous incarnation's sequence
		// than the sponsor did; resume past it.
		p.nextSeq = d.MaxProcessed[p.id]
	}
	if int(p.id) < len(d.Alive) && !d.Alive[p.id] {
		if !p.joining {
			// We are supposed dead: commit suicide. (A restart re-enters
			// through the join protocol: leave, resync, rejoin.)
			p.leave(Suicide)
			return
		}
		// A joiner expects to be listed dead until a coordinator folds its
		// join-flagged request; keep soliciting admission.
	} else if p.joining {
		// The view includes us: a coordinator admitted our request — or we
		// restarted before anyone declared the old incarnation crashed.
		p.becomeJoined()
	}

	// History cleaning: only a full-group stability vector may purge.
	if d.FullGroup {
		// Clip to what we ourselves processed: stability says everyone
		// covered processed these, and we are alive, but clip defensively.
		clean := d.CleanTo.Clone()
		clean.MinInto(p.tracker.Processed())
		p.hist.CleanTo(clean)
		copy(p.lastClean, clean)
		if p.cb.OnStable != nil {
			p.cb.OnStable(clean)
		}

		// Orphaned sequences: a gap above the best alive holder of a
		// crashed root's sequence can never be filled; the group destroys
		// the dependents and restarts the sequence's consumers after the
		// gap... which is to say, never (a sequence cannot skip).
		for q := 0; q < p.cfg.N; q++ {
			if q >= len(d.Alive) || d.Alive[q] {
				continue
			}
			qp := mid.ProcID(q)
			if d.MinWaiting[q] != 0 && d.MinWaiting[q] > d.MaxProcessed[q]+1 {
				if p.tracker.LastProcessed(qp) <= d.MaxProcessed[q] {
					_ = p.tracker.Condemn(qp, d.MaxProcessed[q]+1)
				}
			}
		}
		for _, m := range p.wait.DropDoomed(p.tracker) {
			p.Stats.Discarded++
			if p.cb.OnDiscard != nil {
				p.cb.OnDiscard(m)
			}
		}
	}

	// Recovery from history: chase every sequence the decision proves we
	// are behind on.
	p.requestRecovery(d)

	// The R rule: leaving after R recovery attempts with no progress.
	cur := p.tracker.Processed().Sum()
	if p.recoveryRequested {
		if cur == p.lastProgress {
			p.recoveryFailures++
			if p.cfg.SelfExclusion && !p.joining && p.recoveryFailures >= p.cfg.R {
				p.leave(RecoveryExhausted)
				return
			}
		} else {
			p.recoveryFailures = 0
		}
	}
	p.lastProgress = cur
}

func (p *Process) requestRecovery(d *wire.Decision) {
	wantsBy := make(map[mid.ProcID][]wire.WantRange)
	batch := p.cfg.recoveryBatch()
	for q := 0; q < p.cfg.N && q < len(d.MaxProcessed); q++ {
		qp := mid.ProcID(q)
		have := p.tracker.LastProcessed(qp)
		if d.MaxProcessed[q] <= have {
			continue
		}
		if c := p.tracker.CondemnedFrom(qp); c != 0 && have+1 >= c {
			continue // the gap is condemned, not recoverable
		}
		from := have + 1
		if p.wait.Has(mid.MID{Proc: qp, Seq: from}) {
			continue // already received; waiting on cross deps, not on q
		}
		holder := d.MostUpdated[q]
		if holder == p.id || holder == mid.None {
			continue
		}
		to := d.MaxProcessed[q]
		if to > from+batch-1 {
			to = from + batch - 1
		}
		wantsBy[holder] = append(wantsBy[holder], wire.WantRange{Proc: qp, From: from, To: to})
	}
	if len(wantsBy) == 0 {
		p.recoveryRequested = false
		return
	}
	p.recoveryRequested = true
	for h := 0; h < p.cfg.N; h++ { // fixed order keeps runs reproducible
		holder := mid.ProcID(h)
		wants, ok := wantsBy[holder]
		if !ok {
			continue
		}
		p.Stats.Recoveries++
		if p.cb.OnRecover != nil {
			p.cb.OnRecover(holder, len(wants))
		}
		p.tp.Send(holder, &wire.Recover{Requester: p.id, Wants: wants})
	}
}

func (p *Process) handleRecover(r *wire.Recover) {
	var msgs []*causal.Message
	var compacted []wire.WantRange
	for _, w := range r.Wants {
		got, err := p.hist.Range(w.Proc, w.From, w.To)
		msgs = append(msgs, got...)
		var ce *history.CompactedError
		if errors.As(err, &ce) {
			// The front of the want was purged here as uniformly stable.
			// Name the prefix nobody retains, so a joiner can skip it
			// instead of chasing unreachable bytes through R retries.
			to := w.To
			if ce.Base < to {
				to = ce.Base
			}
			compacted = append(compacted, wire.WantRange{Proc: w.Proc, From: w.From, To: to})
		}
	}
	if len(msgs) == 0 && len(compacted) == 0 {
		return
	}
	p.Stats.Retransmits++
	if p.cb.OnRetransmit != nil {
		p.cb.OnRetransmit(r.Requester, len(msgs))
	}
	p.tp.Send(r.Requester, &wire.Retransmit{Responder: p.id, Msgs: msgs, Compacted: compacted})
}

// adoptMask folds a decision's alive mask into the local view, in both
// directions: crash declarations remove members, join admissions restore
// them. Callers gate on decision freshness (handleDecision drops stale
// subruns), so the mask never time-travels; a truly crashed member that a
// stale view wrongly kept is re-declared within K subruns by the same
// silence counting that declared it the first time.
func (p *Process) adoptMask(mask []bool) {
	if p.cb.OnCrashDeclared != nil {
		for q := 0; q < p.cfg.N && q < len(mask); q++ {
			if !mask[q] && p.view.Alive(mid.ProcID(q)) {
				p.cb.OnCrashDeclared(mid.ProcID(q))
			}
		}
	}
	removed, added := p.view.Adopt(mask)
	for _, q := range added {
		p.noteJoined(q)
	}
	if len(removed)+len(added) > 0 && p.cb.OnViewChange != nil {
		p.cb.OnViewChange(p.view.AliveMask())
	}
}

// noteJoined clears the bookkeeping of q's previous incarnation when the
// view re-admits it: the condemned-suffix mark (the rejoined sequence
// continues past the resume point and must be processable again), and any
// stale waiting copies the old incarnation left behind (whatever is still
// needed re-arrives through recovery; what is not would collide with the
// re-issued sequence numbers).
func (p *Process) noteJoined(q mid.ProcID) {
	p.tracker.Uncondemn(q)
	p.wait.DropSender(q)
	if q != p.id && p.cb.OnMemberJoined != nil {
		p.cb.OnMemberJoined(q)
	}
}

func (p *Process) leave(reason LeaveReason) {
	if !p.running {
		return
	}
	p.running = false
	if p.cb.OnLeave != nil {
		p.cb.OnLeave(reason)
	}
}

// computeDecision folds the collected requests and the freshest circulated
// decision into this subrun's decision. See Figure 2 of the paper.
func (p *Process) computeDecision() *wire.Decision {
	n := p.cfg.N

	// Deterministic iteration order over the collected requests.
	senders := make([]mid.ProcID, 0, len(p.requests))
	for q := 0; q < n; q++ {
		if _, ok := p.requests[mid.ProcID(q)]; ok {
			senders = append(senders, mid.ProcID(q))
		}
	}

	// The freshest previous decision: ours or any carried by a request.
	prev := p.lastDec
	for _, sender := range senders {
		if r := p.requests[sender]; r.Prev != nil && (prev == nil || r.Prev.Subrun > prev.Subrun) {
			prev = r.Prev
		}
	}

	d := &wire.Decision{
		Subrun:       p.subrun,
		Coord:        p.id,
		MaxProcessed: mid.NewSeqVector(n),
		MostUpdated:  make([]mid.ProcID, n),
		MinWaiting:   mid.NewSeqVector(n),
		CleanTo:      mid.NewSeqVector(n),
		Attempts:     make([]uint8, n),
		Alive:        make([]bool, n),
		Covered:      make([]bool, n),
	}
	for q := range d.MostUpdated {
		d.MostUpdated[q] = mid.None
	}

	// Group composition: start from the local view folded with the
	// previous decision's mask, then fold join admissions, then count
	// silence. A join-flagged request is a live, synced process asking back
	// in: re-admit it before Observe so the admission lands in this
	// decision's mask and its attempts counter restarts at zero (it is in
	// heard). Everyone else adopts the admission from the mask.
	if prev != nil {
		p.adoptMask(prev.Alive)
	}
	admitted := false
	for q := 0; q < n; q++ {
		sender := mid.ProcID(q)
		if r, ok := p.requests[sender]; ok && r.Join && p.view.MarkAlive(sender) {
			p.noteJoined(sender)
			admitted = true
		}
	}
	if admitted && p.cb.OnViewChange != nil {
		p.cb.OnViewChange(p.view.AliveMask())
	}
	heard := make([]bool, n)
	for sender := range p.requests {
		if int(sender) < n {
			heard[sender] = true
		}
	}
	att := group.NewAttempts(n, p.cfg.K)
	if prev != nil {
		att.Load(prev.Attempts)
	}
	declared := att.Observe(heard, p.view)
	for _, crashed := range declared {
		p.view.MarkCrashed(crashed)
		if p.cb.OnCrashDeclared != nil {
			p.cb.OnCrashDeclared(crashed)
		}
	}
	if len(declared) > 0 && p.cb.OnViewChange != nil {
		p.cb.OnViewChange(p.view.AliveMask())
	}
	copy(d.Attempts, att.Counts())
	copy(d.Alive, p.view.AliveMask())

	// Most-updated holders, pruned to alive processes so recovery targets
	// can actually answer.
	if prev != nil {
		for q := 0; q < n && q < len(prev.MaxProcessed); q++ {
			h := prev.MostUpdated[q]
			if h != mid.None && p.view.Alive(h) {
				d.MaxProcessed[q] = prev.MaxProcessed[q]
				d.MostUpdated[q] = h
			}
		}
	}
	for _, sender := range senders {
		r := p.requests[sender]
		for q := 0; q < n && q < len(r.LastProcessed); q++ {
			if r.LastProcessed[q] > d.MaxProcessed[q] {
				d.MaxProcessed[q] = r.LastProcessed[q]
				d.MostUpdated[q] = sender
			}
		}
	}

	// Stability chain (CleanTo/Covered) and the waiting minima: continue
	// the previous chain if it was still accumulating, else start afresh.
	chaining := prev != nil && !prev.FullGroup
	if chaining {
		copy(d.Covered, prev.Covered)
		copy(d.CleanTo, prev.CleanTo)
		copy(d.MinWaiting, prev.MinWaiting)
	} else {
		for q := range d.CleanTo {
			d.CleanTo[q] = ^mid.Seq(0) // +inf until first report folds in
		}
	}
	for _, sender := range senders {
		r := p.requests[sender]
		if int(sender) < n {
			d.Covered[sender] = true
		}
		d.CleanTo.MinInto(r.LastProcessed)
		for q := 0; q < n && q < len(r.Waiting); q++ {
			if w := r.Waiting[q]; w != 0 && (d.MinWaiting[q] == 0 || w < d.MinWaiting[q]) {
				d.MinWaiting[q] = w
			}
		}
	}
	for q := range d.CleanTo {
		if d.CleanTo[q] == ^mid.Seq(0) {
			d.CleanTo[q] = 0 // nobody reported; nothing provably stable
		}
	}

	// Full group: every currently-alive process is covered by the chain.
	d.FullGroup = true
	for q := 0; q < n; q++ {
		if d.Alive[q] && !d.Covered[q] {
			d.FullGroup = false
			break
		}
	}
	return d
}
