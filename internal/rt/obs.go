// Package rt holds the pieces of the live runtime that every hosted group
// shares, independent of how frames move: the per-entity instrument set
// (NodeObs), the lifecycle stage hooks (InstallLifecycle), the coalescing
// sender (Coalescer) and the race-free protocol sample served on /status
// (Status). The runtime itself — the protocol loop, mesh and UDP backends, fault
// and capture hooks — is internal/topics.
package rt

import (
	"strconv"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/wire"
)

// NodeObs holds one protocol entity's pre-resolved instruments, so hot
// paths touch atomics instead of registry maps. A nil *NodeObs disables
// everything. Every series carries the {node, group} label pair.
type NodeObs struct {
	reg   *obs.Registry
	node  mid.ProcID
	group int

	processed   *obs.Counter
	rounds      *obs.Counter
	indDropped  *obs.Counter
	inboxDrops  *obs.Counter
	decisions   *obs.Counter
	recoveries  *obs.Counter
	retransmits *obs.Counter
	crashDecls  *obs.Counter
	discards    *obs.Counter

	viewChanges *obs.Counter
	joins       *obs.Counter // completed joins (this member re-entered the view)
	fastFwds    *obs.Counter // recovery fast-forwards over compacted history

	joiningG *obs.Gauge // 1 while this member is joining, 0 once admitted

	histLen     *obs.Gauge
	waitLen     *obs.Gauge
	pendingLen  *obs.Gauge
	inboxDepth  *obs.Gauge
	subrunG     *obs.Gauge
	coordG      *obs.Gauge
	aliveCount  *obs.Gauge
	decisionSub *obs.Gauge
	stableSum   *obs.Gauge

	decisionLat *obs.Histogram
	confirmLat  *obs.Histogram

	batchFrames *obs.Counter   // multi-message DataBatch frames broadcast
	batchMsgs   *obs.Counter   // user messages carried by those frames
	batchSize   *obs.Histogram // messages per DataBatch frame
	coalesceSz  *obs.Histogram // submissions per coalescer flush

	// subrunStart is the wall-clock open of the member's current subrun,
	// written and read only on the node loop goroutine.
	subrunStart time.Time
}

// NewNodeObs resolves the instrument set of member id's entity in one
// hosted group of n members; nil registry → nil.
func NewNodeObs(reg *obs.Registry, id mid.ProcID, n, group int) *NodeObs {
	if reg == nil {
		return nil
	}
	l := func(name string) string {
		return obs.Labeled(name, "node", strconv.Itoa(int(id)), "group", strconv.Itoa(group))
	}
	o := &NodeObs{
		reg:         reg,
		node:        id,
		group:       group,
		processed:   reg.Counter(l("rt_processed_total")),
		rounds:      reg.Counter(l("rt_rounds_total")),
		indDropped:  reg.Counter(l("rt_indications_dropped_total")),
		inboxDrops:  reg.Counter(l("rt_inbox_dropped_total")),
		decisions:   reg.Counter(l("rt_decisions_total")),
		recoveries:  reg.Counter(l("core_recoveries_total")),
		retransmits: reg.Counter(l("core_retransmits_total")),
		crashDecls:  reg.Counter(l("core_crash_declarations_total")),
		discards:    reg.Counter(l("core_discards_total")),
		viewChanges: reg.Counter(l("core_view_changes_total")),
		joins:       reg.Counter(l("core_joins_total")),
		fastFwds:    reg.Counter(l("core_fast_forwards_total")),
		joiningG:    reg.Gauge(l("core_joining")),
		histLen:     reg.Gauge(l("core_history_len")),
		waitLen:     reg.Gauge(l("core_waiting_len")),
		pendingLen:  reg.Gauge(l("core_pending_len")),
		inboxDepth:  reg.Gauge(l("rt_inbox_depth")),
		subrunG:     reg.Gauge(l("core_subrun")),
		coordG:      reg.Gauge(l("core_coordinator")),
		aliveCount:  reg.Gauge(l("core_alive_count")),
		decisionSub: reg.Gauge(l("core_decision_subrun")),
		stableSum:   reg.Gauge(l("core_stable_sum")),
		decisionLat: reg.Histogram(l("rt_decision_latency_seconds"), obs.DurationBuckets),
		confirmLat:  reg.Histogram(l("rt_confirm_latency_seconds"), obs.DurationBuckets),
		batchFrames: reg.Counter(l("rt_batch_frames_total")),
		batchMsgs:   reg.Counter(l("rt_batch_msgs_total")),
		batchSize:   reg.Histogram(l("rt_batch_frame_msgs"), obs.LengthBuckets),
		coalesceSz:  reg.Histogram(l("rt_coalesce_flush_msgs"), obs.LengthBuckets),
	}
	o.aliveCount.Set(int64(n))
	return o
}

// Install extends a member's protocol callbacks with the observability
// hooks. The passed callbacks' own fields keep running first. All hooks
// execute on the node loop goroutine, like every core callback. Nil-safe.
func (o *NodeObs) Install(cb core.Callbacks) core.Callbacks {
	if o == nil {
		return cb
	}
	prevProcess, prevDecision := cb.OnProcess, cb.OnDecision
	cb.OnProcess = func(m *causal.Message) {
		if prevProcess != nil {
			prevProcess(m)
		}
		o.processed.Inc()
	}
	cb.OnDecision = func(d *wire.Decision) {
		if prevDecision != nil {
			prevDecision(d)
		}
		o.decisions.Inc()
		o.decisionSub.Set(d.Subrun)
		if !o.subrunStart.IsZero() {
			o.decisionLat.ObserveSince(o.subrunStart)
		}
	}
	prevBatch := cb.OnBatchBroadcast
	cb.OnBatchBroadcast = func(msgs, bytes int) {
		if prevBatch != nil {
			prevBatch(msgs, bytes)
		}
		o.batchFrames.Inc()
		o.batchMsgs.Add(int64(msgs))
		o.batchSize.Observe(float64(msgs))
	}
	prevSubrun := cb.OnSubrunStart
	cb.OnSubrunStart = func(s int64, coord mid.ProcID) {
		if prevSubrun != nil {
			prevSubrun(s, coord)
		}
		o.subrunG.Set(s)
		o.coordG.Set(int64(coord))
	}
	prevView := cb.OnViewChange
	cb.OnViewChange = func(alive []bool) {
		if prevView != nil {
			prevView(alive)
		}
		o.viewChanges.Inc()
		n := int64(0)
		for _, a := range alive {
			if a {
				n++
			}
		}
		o.aliveCount.Set(n)
	}
	prevStable := cb.OnStable
	cb.OnStable = func(clean mid.SeqVector) {
		if prevStable != nil {
			prevStable(clean)
		}
		var sum int64
		for _, s := range clean {
			sum += int64(s)
		}
		o.stableSum.Set(sum)
	}
	cb.OnRoundEnd = func(ro core.RoundObservation) {
		o.histLen.Set(int64(ro.HistoryLen))
		o.waitLen.Set(int64(ro.WaitingLen))
		o.pendingLen.Set(int64(ro.Pending))
	}
	prevInstalled := cb.OnJoinInstalled
	cb.OnJoinInstalled = func(stable mid.SeqVector) {
		if prevInstalled != nil {
			prevInstalled(stable)
		}
		// The counter is per-OS-process, but the prefix at or below the
		// installed watermark was processed by the member's previous
		// incarnation and is skipped by state transfer. Seed it so the
		// count stays comparable across the cluster (inspect's
		// progress-skew rule compares raw totals between members).
		var sum int64
		for _, s := range stable {
			sum += int64(s)
		}
		o.processed.Add(sum)
	}
	prevJoined := cb.OnJoined
	cb.OnJoined = func() {
		if prevJoined != nil {
			prevJoined()
		}
		o.joins.Inc()
		o.joiningG.Set(0)
	}
	prevFF := cb.OnFastForward
	cb.OnFastForward = func(q mid.ProcID, to mid.Seq) {
		if prevFF != nil {
			prevFF(q, to)
		}
		o.fastFwds.Inc()
	}
	cb.OnRecover = func(mid.ProcID, int) { o.recoveries.Inc() }
	cb.OnRetransmit = func(_ mid.ProcID, msgs int) { o.retransmits.Add(int64(msgs)) }
	cb.OnCrashDeclared = func(mid.ProcID) { o.crashDecls.Inc() }
	prevDiscard := cb.OnDiscard
	cb.OnDiscard = func(m *causal.Message) {
		if prevDiscard != nil {
			prevDiscard(m)
		}
		o.discards.Inc()
	}
	return cb
}

// MarkJoining publishes whether the member is currently a joiner (the
// core_joining gauge). Called at process construction; the OnJoined hook
// clears it when the join completes.
func (o *NodeObs) MarkJoining(v bool) {
	if o == nil {
		return
	}
	if v {
		o.joiningG.Set(1)
	} else {
		o.joiningG.Set(0)
	}
}

// MarkRound counts round r and notes a subrun open for decision-latency
// measurement. Loop goroutine only.
func (o *NodeObs) MarkRound(r int) {
	if o == nil {
		return
	}
	o.rounds.Inc()
	if r%2 == 0 {
		o.subrunStart = time.Now()
	}
}

// Coalesced records one coalescer flush of n submissions. Safe from any
// goroutine.
func (o *NodeObs) Coalesced(n int) {
	if o != nil {
		o.coalesceSz.Observe(float64(n))
	}
}

// IndicationDropped counts a slow consumer losing an indication.
func (o *NodeObs) IndicationDropped() {
	if o != nil {
		o.indDropped.Inc()
	}
}

// InboxDropped counts a datagram refused by a full inbox and records the
// by-design omission as a trace event, so the recovery path is verifiable
// from the log rather than assumed.
func (o *NodeObs) InboxDropped() {
	if o == nil {
		return
	}
	o.inboxDrops.Inc()
	o.reg.Events().Addf("inbox-drop node=%d group=%d (full inbox: omission, recovered from history)", o.node, o.group)
}

// ObserveConfirm records one Rq→Conf latency (the paper's delay, wall-
// clock edition). Safe from any goroutine.
func (o *NodeObs) ObserveConfirm(t0 time.Time) {
	if o != nil {
		o.confirmLat.ObserveSince(t0)
	}
}

// SampleInbox publishes the current inbox depth. Safe from any goroutine.
func (o *NodeObs) SampleInbox(depth int) {
	if o != nil {
		o.inboxDepth.Set(int64(depth))
	}
}
