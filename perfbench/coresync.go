package main

import (
	"fmt"
	"runtime"
	"time"

	"urcgc/internal/mid"
)

// syncParams shapes the core-sync workload: n protocol members in
// lockstep rounds over an in-memory transport that encodes and decodes
// every PDU, with no goroutines or timers.
type syncParams struct {
	N, K, R, BatchMax int
	Subruns           int // subruns with submissions per pass; a drain follows
	PerSubrun         int // messages each live member submits per subrun
	DepOneIn          int // one message in DepOneIn declares a dependency
	DropOneIn         int // one data frame delivery in DropOneIn is lost
	Payload           int
}

// coreSync is the core-sync workload's shape.
var coreSync = syncParams{
	N: 9, K: 3, R: 8, BatchMax: 32,
	Subruns: 300, PerSubrun: 4, DepOneIn: 4, DropOneIn: 200, Payload: 64,
}

// crashRound is the round at which the coordinator of that round's subrun
// crashes: one third of the way through the submission rounds.
func (p syncParams) crashRound() int {
	r := 2 * p.Subruns / 3
	return r - r%2
}

// maxDrainRounds bounds the rounds a pass may take after its last
// submission before it must be quiescent.
const maxDrainRounds = 400

// syncCounts are a pass's protocol counts. They are a pure function of
// the seed: the program reads no clock and one goroutine drives every member.
type syncCounts struct {
	Submitted, Delivered int // messages; delivered = processed at every survivor
	Orphaned             int // the crashed member's messages no survivor processed
	Rounds, Subruns      int
	DataBytes, CtlBytes  int64 // encoded bytes times recipients
	Frames, CtlFrames    int64 // encodings
	Dropped              int
	Recoveries           int
	Retransmits          int
	HistoryPeak          int
	WaitingPeak          int
	CrashDetectRounds    int // crash to the last survivor's declaration
	StallRounds          int // longest gap in processing progress at a survivor
	ConfirmP50Rounds     int
	ConfirmP99Rounds     int
	DeliverP99Rounds     int
	StableP50Rounds      int
}

// syncPass is one pass's counts, timings and audit verdict.
type syncPass struct {
	syncCounts
	Steady time.Duration // driving the rounds, drain included, on the driving thread's CPU clock
	CPU    time.Duration
	Allocs uint64
	GCCPU  float64       // seconds
	Setup  time.Duration // on the driving thread's CPU clock
	HeapMB float64       // heap-probing passes: peak live heap above the pass's start
	// Latencies in ms on the driving thread's CPU clock.
	ConfirmP50 float64
	ConfirmP99 float64
	DeliverP50 float64
	DeliverP99 float64
	Violations []string
	Slowdown   float64 // the host's, from the calibration timed before the pass
}

// syncMsg is the pass's record of one submitted message. It holds no
// pointers, so the table of them can live off the Go heap.
type syncMsg struct {
	sender      int
	id          mid.MID
	dep         mid.MID // zero if none
	submitRound int
	submitAt    int64 // ns since the pass began
	stableRound int
}

type syncFrame struct {
	id       uint64
	src, dst int // dst -1 broadcasts to every other member
	buf      []byte
}

// syncCluster is one pass: the members, the frame queue and the records.
type syncCluster struct {
	p       syncParams
	t0      time.Time
	members []protoMember
	alive   []bool // false once the workload crashes a member
	round   int
	drops   *dropper
	tr      *spanLog // nil when untraced
	keep    [][]byte // copies of encoded frames, for the codec replay
	keepCap int

	queue    []syncFrame
	free     [][]byte
	frameSeq uint64
	err      error

	msgs     []syncMsg
	procAt   []int64 // [idx*N+member] ns since t0 when processed, -1 if not
	procRnd  []int32 // [idx*N+member] round processed
	procCnt  []int   // per member, messages processed
	lastFrom [][]mid.Seq
	order    [][]int32 // per member, message indices in processing order
	own      [][]int32 // per member, its message indices in sequence order
	stablePt []int
	declared []int // round each member declared the victim crashed, -1 if not
	victim   int
	setupAt  int64 // wall ns when the first message was processed everywhere
	setupRnd int
	anchors  []anchor
	c        syncCounts
}

// anchor pairs a wall stamp with the driving thread's CPU clock. The pass
// takes one before building the members and one at the start of every
// round; events stamped with the cheap wall clock are converted to the
// thread clock by interpolating within their round, which removes time
// the virtual CPU spent stolen by the host.
type anchor struct{ wall, cpu int64 }

func (c *syncCluster) mark() {
	c.anchors = append(c.anchors, anchor{wall: c.now(), cpu: int64(threadCPU())})
}

// steadyAt converts a wall stamp taken during round r (-1: while building
// the members) to the driving thread's CPU clock.
func (c *syncCluster) steadyAt(wall int64, r int) int64 {
	a, b := c.anchors[r+1], c.anchors[r+2]
	if b.wall <= a.wall {
		return a.cpu
	}
	f := float64(wall-a.wall) / float64(b.wall-a.wall)
	f = min(max(f, 0), 1)
	return a.cpu + int64(f*float64(b.cpu-a.cpu))
}

func (c *syncCluster) begin(name string, id uint64) {
	if c.tr != nil {
		c.tr.begin(name, id)
	}
}

func (c *syncCluster) end(name string) {
	if c.tr != nil {
		c.tr.end(name)
	}
}

func (c *syncCluster) now() int64 { return int64(time.Since(c.t0)) }

// memberTransport is one member's view of the in-memory network.
type memberTransport struct {
	c    *syncCluster
	self int
}

func (t memberTransport) Send(dst mid.ProcID, p pdu) { t.c.enqueue(t.self, int(dst), p) }
func (t memberTransport) Broadcast(p pdu)            { t.c.enqueue(t.self, -1, p) }

// enqueue encodes p once and queues the frame for delivery.
func (c *syncCluster) enqueue(src, dst int, p pdu) {
	var buf []byte
	if n := len(c.free); n > 0 {
		buf, c.free = c.free[n-1], c.free[:n-1]
	}
	c.frameSeq++
	c.begin("wire.MarshalAppend", c.frameSeq)
	buf, err := encodeFrame(buf, p)
	c.end("")
	if err != nil {
		c.fail(fmt.Errorf("encode %T from %d: %w", p, src, err))
		return
	}
	recipients := int64(1)
	if dst < 0 {
		recipients = int64(c.p.N - 1)
	}
	c.c.Frames++
	if _, data := frameKind(buf); data {
		c.c.DataBytes += int64(len(buf)) * recipients
	} else {
		c.c.CtlFrames++
		c.c.CtlBytes += int64(len(buf)) * recipients
	}
	if len(c.keep) < c.keepCap {
		c.keep = append(c.keep, append([]byte(nil), buf...))
	}
	c.queue = append(c.queue, syncFrame{id: c.frameSeq, src: src, dst: dst, buf: buf})
}

func (c *syncCluster) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// deliver hands every queued frame, and every frame queued while handling
// them, to its live recipients, decoding a fresh PDU for each.
func (c *syncCluster) deliver() {
	for q := 0; q < len(c.queue); q++ {
		f := c.queue[q]
		kind, data := frameKind(f.buf)
		for dst := 0; dst < c.p.N; dst++ {
			if dst == f.src || (f.dst >= 0 && dst != f.dst) || !c.alive[dst] {
				continue
			}
			if data && c.drops.drop() {
				c.c.Dropped++
				continue
			}
			c.begin("core.Recv", f.id)
			c.begin("wire.Unmarshal", f.id)
			p, err := decodeFrame(f.buf)
			c.end("")
			if err != nil {
				c.end("core.Recv." + kind)
				c.fail(fmt.Errorf("decode %s frame from %d: %w", kind, f.src, err))
				continue
			}
			c.members[dst].recv(mid.ProcID(f.src), p)
			c.end("core.Recv." + kind)
		}
		c.free = append(c.free, f.buf[:0])
	}
	c.queue = c.queue[:0]
}

func (c *syncCluster) hooks(i int) protoHooks {
	return protoHooks{
		Process: func(id mid.MID, payload []byte) {
			idx, ok := checkPayload(payload, c.p.Payload)
			if !ok || idx >= uint64(len(c.msgs)) || c.msgs[idx].id != id {
				c.fail(fmt.Errorf("member %d processed %v with a payload that is not the one submitted", i, id))
				return
			}
			slot := int(idx)*c.p.N + i
			if c.procAt[slot] >= 0 {
				c.fail(fmt.Errorf("member %d processed %v twice", i, id))
				return
			}
			c.procAt[slot] = c.now()
			c.procRnd[slot] = int32(c.round)
			c.procCnt[i]++
			c.order[i] = append(c.order[i], int32(idx))
			if int(id.Proc) != i && id.Seq > c.lastFrom[i][id.Proc] {
				c.lastFrom[i][id.Proc] = id.Seq
			}
			if idx == 0 && c.setupAt == 0 {
				done := true
				for m := 0; m < c.p.N; m++ {
					done = done && c.procAt[m] >= 0
				}
				if done {
					c.setupAt, c.setupRnd = c.now(), c.round
				}
			}
		},
		Stable: func(clean mid.SeqVector) {
			own := c.own[i]
			for c.stablePt[i] < len(own) {
				m := &c.msgs[own[c.stablePt[i]]]
				if m.id.Seq > clean[i] {
					break
				}
				m.stableRound = c.round
				c.stablePt[i]++
			}
		},
		Recover:    func() { c.c.Recoveries++ },
		Retransmit: func(n int) { c.c.Retransmits += n },
		CrashDeclared: func(q mid.ProcID) {
			if int(q) == c.victim && c.declared[i] < 0 {
				c.declared[i] = c.round
			}
		},
		RoundEnd: func(h, w int) {
			c.c.HistoryPeak = max(c.c.HistoryPeak, h)
			c.c.WaitingPeak = max(c.c.WaitingPeak, w)
		},
	}
}

// submit has member i submit one scheduled message.
func (c *syncCluster) submit(i int, s send) {
	idx := len(c.msgs)
	var dep mid.MID
	var deps mid.DepList
	if s.WantDep {
		j := (i + s.DepFrom) % c.p.N
		if seq := c.lastFrom[i][j]; seq > 0 {
			dep = mid.MID{Proc: mid.ProcID(j), Seq: seq}
			deps = mid.DepList{dep}
		}
	}
	c.msgs = append(c.msgs, syncMsg{sender: i, dep: dep, submitRound: c.round, submitAt: c.now(), stableRound: -1})
	for m := 0; m < c.p.N; m++ {
		c.procAt = append(c.procAt, -1)
		c.procRnd = append(c.procRnd, -1)
	}
	payload := makePayload(uint64(idx), s.Size)
	c.begin("core.Submit", uint64(idx))
	id, err := c.members[i].submit(payload, deps)
	c.end("")
	if err != nil {
		c.fail(fmt.Errorf("member %d submit: %w", i, err))
		return
	}
	c.msgs[idx].id = id
	c.own[i] = append(c.own[i], int32(idx))
}

// syncTables are a pass's per-message records, sized to the most a pass
// can submit. A run maps them outside the Go heap once and every pass
// reuses them, so the pass's heap figure is the protocol's own.
type syncTables struct {
	mem     arena
	msgs    []syncMsg
	procAt  []int64
	procRnd []int32
	order   [][]int32
	own     [][]int32
	anchors []anchor
}

func newSyncTables(p syncParams) (*syncTables, error) {
	most := p.N * p.PerSubrun * p.Subruns
	t := &syncTables{order: make([][]int32, p.N), own: make([][]int32, p.N)}
	var err error
	if t.msgs, err = offHeap[syncMsg](&t.mem, most); err == nil {
		t.procAt, err = offHeap[int64](&t.mem, most*p.N)
	}
	if err == nil {
		t.procRnd, err = offHeap[int32](&t.mem, most*p.N)
	}
	if err == nil {
		// One anchor before the members are built, one per round, one after.
		t.anchors, err = offHeap[anchor](&t.mem, 2*p.Subruns+maxDrainRounds+2)
	}
	for i := 0; i < p.N && err == nil; i++ {
		if t.order[i], err = offHeap[int32](&t.mem, most); err == nil {
			t.own[i], err = offHeap[int32](&t.mem, p.PerSubrun*p.Subruns)
		}
	}
	if err != nil {
		t.mem.free()
		return nil, err
	}
	return t, nil
}

// runSyncPass drives one pass: n members, seeded submissions each subrun,
// seeded data-frame drops, the coordinator crash one third of the way in,
// then rounds without submissions until every survivor has processed the
// same messages. It audits the result.
// With keepFrames > 0 it also returns copies of the first frames encoded.
// With heapProbe it collects garbage after every round and records the
// peak live heap, less the frame buffers the in-memory network keeps for
// reuse, above the heap before the members were built; such a pass's
// times are not measurements.
func runSyncPass(p syncParams, seed int64, t *syncTables, heapProbe bool, tr *spanLog, keepFrames int) (syncPass, [][]byte, error) {
	sched := newSyncSchedule(seed, p)
	c := &syncCluster{
		p: p, drops: newDropper(seed, p.DropOneIn), tr: tr, keepCap: keepFrames,
		alive: make([]bool, p.N), procCnt: make([]int, p.N),
		lastFrom: make([][]mid.Seq, p.N), order: make([][]int32, p.N),
		own: make([][]int32, p.N), stablePt: make([]int, p.N), declared: make([]int, p.N),
		victim: -1,
		msgs:   t.msgs[:0], procAt: t.procAt[:0], procRnd: t.procRnd[:0], anchors: t.anchors[:0],
	}
	for i := range c.alive {
		c.alive[i] = true
		c.lastFrom[i] = make([]mid.Seq, p.N)
		c.declared[i] = -1
		c.order[i] = t.order[i][:0]
		c.own[i] = t.own[i][:0]
	}
	var res syncPass
	var heapBase, heapPeak uint64
	if heapProbe {
		heapBase = heapLiveNow()
		heapPeak = heapBase
	}
	before := readProc()
	c.t0 = time.Now()
	c.mark()
	for i := 0; i < p.N; i++ {
		m, err := newProtoMember(mid.ProcID(i), p, memberTransport{c, i}, c.hooks(i))
		if err != nil {
			return res, nil, fmt.Errorf("member %d: %w", i, err)
		}
		c.members = append(c.members, m)
	}
	crash := p.crashRound()
	subRounds := 2 * p.Subruns
	lastProgress := make([]int, p.N)
	seen := make([]int, p.N)
	for i := range lastProgress {
		lastProgress[i] = -1
	}
	rounds := 0
	for c.round = 0; c.round < subRounds+maxDrainRounds; c.round++ {
		r := c.round
		rounds = r + 1
		c.mark()
		if r == crash {
			c.victim = (r / 2) % p.N
			c.alive[c.victim] = false
		}
		if r%2 == 0 && r < subRounds {
			for i := 0; i < p.N; i++ {
				sends := sched.Subrun(i)
				if !c.alive[i] {
					continue
				}
				for _, s := range sends {
					c.submit(i, s)
				}
			}
		}
		for i, m := range c.members {
			if c.alive[i] {
				c.begin("core.StartRound", uint64(r))
				m.startRound(r)
				c.end("")
			}
		}
		c.deliver()
		if c.err != nil {
			return res, nil, c.err
		}
		if heapProbe {
			var pooled uint64
			for _, b := range c.free {
				pooled += uint64(cap(b))
			}
			live := heapLiveNow()
			heapPeak = max(heapPeak, live-min(live, pooled))
		}
		for i := range c.members {
			if !c.alive[i] || c.procCnt[i] == seen[i] {
				continue
			}
			seen[i] = c.procCnt[i]
			if lastProgress[i] >= 0 && r < subRounds {
				c.c.StallRounds = max(c.c.StallRounds, r-lastProgress[i])
			}
			lastProgress[i] = r
		}
		if r >= subRounds && r%2 == 1 && c.quiescent() {
			break
		}
	}
	c.mark()
	after := readProc()
	res.HeapMB = float64(heapPeak-heapBase) / 1e6
	c.c.Rounds = rounds
	c.c.Subruns = (rounds + 1) / 2
	first, last := c.anchors[1], c.anchors[len(c.anchors)-1]
	res.Steady = time.Duration(last.cpu - first.cpu)
	res.CPU = after.cpu - before.cpu
	res.Allocs = after.allocs - before.allocs
	res.GCCPU = after.gcCPU - before.gcCPU
	res.Setup = time.Duration(c.steadyAt(c.setupAt, c.setupRnd) - c.anchors[0].cpu)
	if !c.quiescent() {
		res.Violations = append(res.Violations, fmt.Sprintf("not quiescent %d rounds after the last submission", maxDrainRounds))
	}
	c.finish(&res)
	return res, c.keep, nil
}

// survivors are the members the workload did not crash.
func (c *syncCluster) survivors() []int {
	var out []int
	for i, a := range c.alive {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// quiescent reports whether every survivor processed every message a
// survivor sent, and all survivors processed the same number of messages.
func (c *syncCluster) quiescent() bool {
	surv := c.survivors()
	for _, i := range surv {
		if c.procCnt[i] != c.procCnt[surv[0]] || !c.members[i].running() {
			return false
		}
	}
	for idx := range c.msgs {
		if !c.alive[c.msgs[idx].sender] {
			continue
		}
		for _, i := range surv {
			if c.procAt[idx*c.p.N+i] < 0 {
				return false
			}
		}
	}
	return true
}

// finish derives the pass's latencies and counts and runs the audit.
func (c *syncCluster) finish(res *syncPass) {
	surv := c.survivors()
	var confMs, delMs, confR, delR, stableR []float64
	for idx := range c.msgs {
		m := &c.msgs[idx]
		last, lastR, all := int64(-1), int32(-1), true
		for _, i := range surv {
			at := c.procAt[idx*c.p.N+i]
			if at < 0 {
				all = false
				break
			}
			if at > last {
				last, lastR = at, c.procRnd[idx*c.p.N+i]
			}
		}
		if !all {
			if !c.alive[m.sender] {
				c.c.Orphaned++
			}
			continue
		}
		c.c.Delivered++
		if !c.alive[m.sender] {
			continue
		}
		conf := idx*c.p.N + m.sender
		sub := c.steadyAt(m.submitAt, m.submitRound)
		confMs = append(confMs, float64(c.steadyAt(c.procAt[conf], int(c.procRnd[conf]))-sub)/1e6)
		confR = append(confR, float64(int(c.procRnd[conf])-m.submitRound))
		delMs = append(delMs, float64(c.steadyAt(last, int(lastR))-sub)/1e6)
		delR = append(delR, float64(int(lastR)-m.submitRound))
		if m.stableRound >= 0 {
			stableR = append(stableR, float64(m.stableRound-m.submitRound))
		}
	}
	c.c.Submitted = len(c.msgs)
	res.ConfirmP50, _, _ = percentile(confMs, 0.50)
	res.ConfirmP99, _, _ = percentile(confMs, 0.99)
	res.DeliverP50, _, _ = percentile(delMs, 0.50)
	res.DeliverP99, _, _ = percentile(delMs, 0.99)
	v, _, _ := percentile(confR, 0.50)
	c.c.ConfirmP50Rounds = int(v)
	v, _, _ = percentile(confR, 0.99)
	c.c.ConfirmP99Rounds = int(v)
	v, _, _ = percentile(delR, 0.99)
	c.c.DeliverP99Rounds = int(v)
	v, _, _ = percentile(stableR, 0.50)
	c.c.StableP50Rounds = int(v)

	c.c.CrashDetectRounds = -1
	for _, i := range surv {
		if c.declared[i] < 0 {
			res.Violations = append(res.Violations, fmt.Sprintf("survivor %d never declared the crashed member %d", i, c.victim))
			continue
		}
		c.c.CrashDetectRounds = max(c.c.CrashDetectRounds, c.declared[i]-c.p.crashRound())
	}
	ids := make([]mid.ProcID, len(surv))
	for k, i := range surv {
		ids[k] = mid.ProcID(i)
	}
	logs := make(map[mid.ProcID][]auditEntry, c.p.N)
	for i, order := range c.order {
		entries := make([]auditEntry, len(order))
		for k, idx := range order {
			m := &c.msgs[idx]
			entries[k].ID = m.id
			if !m.dep.IsZero() {
				entries[k].Deps = mid.DepList{m.dep}
			}
		}
		logs[mid.ProcID(i)] = entries
	}
	res.Violations = append(res.Violations, auditGroup(logs, ids)...)
	res.syncCounts = c.c
}

// coreSyncResult aggregates the passes of one core-sync run.
type coreSyncResult struct {
	passes     []syncPass // untraced
	heapPass   syncPass
	traced     []syncPass
	spans      map[string]*spanTotals
	firstSpans []span
	encAllocs  float64 // per frame, replaying the kept frames
	decAllocs  float64
	calib      []float64 // calibration loop timings, ns, one per pass
	violations []string
}

// keptFrames is how many encoded frames a traced run keeps for the codec
// allocation replay.
const keptFrames = 20000

// runCoreSync runs passes of the same seeded schedule until the time is
// spent. With tracing, passes alternate untraced and traced, so both
// sides see the same machine conditions.
func runCoreSync(seed int64, seconds float64, trace bool) (*coreSyncResult, error) {
	// The pass clock is this thread's CPU time (see anchor).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	res := &coreSyncResult{spans: map[string]*spanTotals{}}
	tabs, err := newSyncTables(coreSync)
	if err != nil {
		return nil, err
	}
	defer tabs.mem.free()
	calBuf, err := offHeap[uint64](&tabs.mem, calibrationWords)
	if err != nil {
		return nil, err
	}
	// The heap figure comes from a pass of its own: it collects garbage
	// every round, which would distort the timed passes.
	if res.heapPass, _, err = runSyncPass(coreSync, seed, tabs, true, nil, 0); err != nil {
		return nil, err
	}
	res.violations = append(res.violations, res.heapPass.Violations...)
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	var frames [][]byte
	for k := 0; ; k++ {
		traced := trace && k%2 == 1
		var tr *spanLog
		keep := 0
		if traced {
			tr = newSpanLog(time.Now())
			if frames == nil {
				keep = keptFrames
			}
		}
		// Each pass is scaled by a calibration timed just before it, with
		// the previous pass's garbage collected so the loop runs alone.
		runtime.GC()
		cal := calibrationLoop(calBuf)
		res.calib = append(res.calib, float64(cal))
		pass, kept, err := runSyncPass(coreSync, seed, tabs, false, tr, keep)
		if err != nil {
			return nil, err
		}
		pass.Slowdown = float64(cal) / float64(refCalibration)
		res.violations = append(res.violations, pass.Violations...)
		if traced {
			res.traced = append(res.traced, pass)
			aggregate(tr.spans, res.spans)
			if res.firstSpans == nil {
				res.firstSpans = tr.spans
			}
			if kept != nil {
				frames = kept
			}
		} else {
			res.passes = append(res.passes, pass)
		}
		if time.Since(start) >= budget && len(res.passes) >= 3 && (!trace || len(res.traced) >= 3) {
			break
		}
	}
	if trace {
		var err error
		if res.encAllocs, res.decAllocs, err = codecAllocs(frames); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// codecAllocs replays frames a traced pass encoded through the codec and
// returns the heap allocations per frame of encoding (into a reused
// buffer, as the in-memory transport does) and of decoding.
func codecAllocs(frames [][]byte) (enc, dec float64, err error) {
	if len(frames) == 0 {
		return 0, 0, fmt.Errorf("codec replay: no frames kept")
	}
	pdus := make([]pdu, len(frames))
	for i, f := range frames {
		if pdus[i], err = decodeFrame(f); err != nil {
			return 0, 0, fmt.Errorf("codec replay: %w", err)
		}
	}
	const reps = 3
	var ms runtime.MemStats
	buf := make([]byte, 0, 64*1024)
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	for r := 0; r < reps; r++ {
		for _, p := range pdus {
			if buf, err = encodeFrame(buf[:0], p); err != nil {
				return 0, 0, fmt.Errorf("codec replay: %w", err)
			}
		}
	}
	runtime.ReadMemStats(&ms)
	m1 := ms.Mallocs
	for r := 0; r < reps; r++ {
		for _, f := range frames {
			if _, err = decodeFrame(f); err != nil {
				return 0, 0, fmt.Errorf("codec replay: %w", err)
			}
		}
	}
	runtime.ReadMemStats(&ms)
	n := float64(reps * len(frames))
	return float64(m1-m0) / n, float64(ms.Mallocs-m1) / n, nil
}
