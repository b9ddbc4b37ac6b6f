package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// liveWorkload is an open-loop workload over the multi-group UDP runtime.
type liveWorkload struct {
	name     string
	cluster  liveConfig
	gen      liveParams
	deadline time.Duration // per send, from its due time
	warmup   time.Duration // generated but not measured
	setups   int           // cluster set-ups timed; the last one is measured
}

func liveShape(groups int, mesh bool, round time.Duration) liveConfig {
	return liveConfig{
		Mesh: mesh, N: 3, Groups: groups, K: 3, R: 8, BatchMax: 32,
		Round: round, BatchWindow: 500 * time.Microsecond,
	}
}

// The clean capacity of mesh-g8's shape, measured by sweeping its offered
// load (10 s windows, two to five seeds a rate, on a shared 2-vCPU virtual
// machine): 20k to 50k msgs/s ran clean on every seed, 55k collapsed on
// one seed in three and 60k on two in five, with the generator starved and
// most sends timing out. The loaded workloads offer two fifths of 50k:
// at half, two runs in ten met a busy host with the generator 17-22 ms late
// and rounds stretched 1.6-1.9 times. Overload offers twice it.
const cleanCapacity = 50000

var (
	meshG8 = liveWorkload{
		name:    "mesh-g8",
		cluster: liveShape(8, true, 2*time.Millisecond),
		gen: liveParams{N: 3, Groups: 8, Rate: cleanCapacity * 2 / 5, Payload: 64, BigPayload: 1024, BigOneIn: 8,
			DepOneIn: 4},
		deadline: time.Second, warmup: time.Second, setups: 7,
	}
	steadyG1 = liveWorkload{
		name:     "steady-g1",
		cluster:  liveShape(1, false, 20*time.Millisecond),
		gen:      liveParams{N: 3, Groups: 1, Rate: 1000, Payload: 64, DepOneIn: 4},
		deadline: time.Second, warmup: time.Second, setups: 7,
	}
	loadG8 = liveWorkload{
		name:    "load-g8",
		cluster: liveShape(8, false, 2*time.Millisecond),
		gen: liveParams{N: 3, Groups: 8, Rate: cleanCapacity * 2 / 5, Payload: 64, BigPayload: 1024, BigOneIn: 8,
			DepOneIn: 4},
		deadline: time.Second, warmup: time.Second, setups: 7,
	}
	overloadG8 = liveWorkload{
		name:    "overload-g8",
		cluster: liveShape(8, false, 2*time.Millisecond),
		gen: liveParams{N: 3, Groups: 8, Rate: 2 * cleanCapacity, Payload: 64, BigPayload: 1024, BigOneIn: 8,
			DepOneIn: 4},
		deadline: 100 * time.Millisecond, warmup: time.Second, setups: 7,
	}
)

// Send states.
const (
	sendPending uint8 = iota
	sendConfirmed
	sendFailed
)

// liveMsg is the benchmark's record of one generated send. Each field has
// one writer: the generator before dispatch, then the send goroutine.
type liveMsg struct {
	due    int64 // ns since the run's clock started (liveRun.t0)
	start  int64 // ns, when Send was called
	done   int64 // ns, when Send returned
	dep    mid.MID
	size   uint16
	member uint8
	group  uint8
	state  uint8
}

// liveRun is one cluster under load with its indication consumers.
type liveRun struct {
	w     liveWorkload
	lc    *liveCluster
	reg   *obs.Registry
	t0    time.Time
	n, g  int
	msgs  []liveMsg
	count atomic.Int64 // messages generated so far

	mem      arena  // msgs, delivAt, delivCnt and logs
	heapBase uint64 // live heap bytes before the cluster started

	// Written by the consumer of (member, group) only.
	delivAt  []uint32   // [idx*n+member] µs since t0 plus one, 0 if never
	delivCnt []uint8    // [idx*n+member]
	logs     [][]uint64 // [member*g+group] processing order: idx<<32 | seq, fixed capacity
	indCnt   []atomic.Int64
	bad      [][]string
	// lastFrom[(member*n+from)*g+group] is the MID (packed) of the latest
	// message from `from` processed at member in group.
	lastFrom []atomic.Uint64

	inflight, inflightPeak atomic.Int64
	sends                  sync.WaitGroup
	stopConsumers          chan struct{}
	consumers              sync.WaitGroup

	tracing atomic.Bool
	spanMu  sync.Mutex
	spans   *spanLog
}

func packMID(m mid.MID) uint64 { return uint64(uint32(m.Proc))<<32 | uint64(m.Seq) }
func unpackMID(v uint64) mid.MID {
	return mid.MID{Proc: mid.ProcID(int32(v >> 32)), Seq: mid.Seq(uint32(v))}
}

func newLiveRun(w liveWorkload, capacity int) (*liveRun, error) {
	cfg := w.cluster
	reg := obs.New()
	cfg.Metrics = reg
	lr := &liveRun{
		w: w, reg: reg, n: cfg.N, g: cfg.Groups,
		logs:          make([][]uint64, cfg.N*cfg.Groups),
		indCnt:        make([]atomic.Int64, cfg.N*cfg.Groups),
		bad:           make([][]string, cfg.N*cfg.Groups),
		lastFrom:      make([]atomic.Uint64, cfg.N*cfg.N*cfg.Groups),
		stopConsumers: make(chan struct{}),
	}
	// The tables sized to the run live off the Go heap. A group's share of
	// the Poisson stream stays far within a tenth over its mean.
	var err error
	if lr.msgs, err = offHeap[liveMsg](&lr.mem, capacity); err == nil {
		lr.delivAt, err = offHeap[uint32](&lr.mem, capacity*cfg.N)
	}
	if err == nil {
		lr.delivCnt, err = offHeap[uint8](&lr.mem, capacity*cfg.N)
	}
	perGroup := capacity/cfg.Groups + capacity/(10*cfg.Groups) + 1024
	for i := 0; i < len(lr.logs) && err == nil; i++ {
		lr.logs[i], err = offHeap[uint64](&lr.mem, perGroup)
		lr.logs[i] = lr.logs[i][:0]
	}
	if err != nil {
		lr.mem.free()
		return nil, err
	}
	lr.heapBase = heapLiveNow()
	lr.t0 = time.Now()
	lc, err := startLiveCluster(cfg)
	if err != nil {
		lr.mem.free()
		return nil, err
	}
	lr.lc = lc
	for m := 0; m < lr.n; m++ {
		for g := 0; g < lr.g; g++ {
			m, g := m, g
			lr.consumers.Add(1)
			go func() {
				defer lr.consumers.Done()
				if err := lc.indications(m, g, lr.stopConsumers, func(ind indication) { lr.indicated(m, g, ind) }); err != nil {
					lr.bad[m*lr.g+g] = append(lr.bad[m*lr.g+g], err.Error())
				}
			}()
		}
	}
	return lr, nil
}

func (lr *liveRun) now() int64 { return int64(time.Since(lr.t0)) }

// indicated records one delivery at member m in group g. It runs on that
// pair's consumer goroutine.
func (lr *liveRun) indicated(m, g int, ind indication) {
	slot := m*lr.g + g
	idx, ok := checkPayload(ind.Payload, -1)
	if !ok || idx >= uint64(lr.count.Load()) {
		lr.bad[slot] = append(lr.bad[slot], fmt.Sprintf("member %d group %d: undecodable payload for %v", m, g, ind.ID))
		return
	}
	msg := &lr.msgs[idx]
	if int(msg.group) != g || int(ind.ID.Proc) != int(msg.member) || len(ind.Payload) != max(int(msg.size), payloadHeader) {
		lr.bad[slot] = append(lr.bad[slot], fmt.Sprintf("member %d group %d: %v carries message %d of member %d group %d", m, g, ind.ID, idx, msg.member, msg.group))
		return
	}
	if len(lr.logs[slot]) == cap(lr.logs[slot]) {
		lr.bad[slot] = append(lr.bad[slot], fmt.Sprintf("member %d group %d: processing log full at %d messages", m, g, cap(lr.logs[slot])))
		return
	}
	at := lr.now()
	d := int(idx)*lr.n + m
	lr.delivCnt[d]++
	lr.delivAt[d] = uint32(at/1e3) + 1
	lr.logs[slot] = append(lr.logs[slot], idx<<32|uint64(ind.ID.Seq))
	lr.indCnt[slot].Add(1)
	lr.lastFrom[(m*lr.n+int(ind.ID.Proc))*lr.g+g].Store(packMID(ind.ID))
	if lr.tracing.Load() {
		lr.addSpan(span{ID: idx, Name: fmt.Sprintf("deliver@%d", m), Start: msg.start, End: at, Parent: -1})
	}
}

func (lr *liveRun) addSpan(s span) {
	lr.spanMu.Lock()
	if len(lr.spans.spans) < maxSpansWritten {
		lr.spans.add(s)
	}
	lr.spanMu.Unlock()
}

// dispatch starts the send of message idx on its own goroutine: the
// generator never waits for the program.
func (lr *liveRun) dispatch(idx int, s send) {
	msg := &lr.msgs[idx]
	*msg = liveMsg{member: uint8(s.Member), group: uint8(s.Group), size: uint16(s.Size), due: int64(s.Due)}
	var deps mid.DepList
	if s.WantDep {
		from := (s.Member + s.DepFrom) % lr.n
		if v := lr.lastFrom[(s.Member*lr.n+from)*lr.g+s.Group].Load(); v != 0 {
			msg.dep = unpackMID(v)
			deps = mid.DepList{msg.dep}
		}
	}
	payload := makePayload(uint64(idx), s.Size)
	lr.count.Store(int64(idx + 1))
	if p := lr.inflight.Add(1); p > lr.inflightPeak.Load() {
		lr.inflightPeak.Store(p)
	}
	lr.sends.Add(1)
	msg.start = lr.now()
	ctx, cancel := context.WithDeadline(context.Background(), lr.t0.Add(time.Duration(msg.due)+lr.w.deadline))
	traced := lr.tracing.Load()
	go func() {
		defer lr.sends.Done()
		defer cancel()
		_, err := lr.lc.send(ctx, s.Member, s.Group, payload, deps)
		msg.done = lr.now()
		if err != nil {
			msg.state = sendFailed
		} else {
			msg.state = sendConfirmed
		}
		lr.inflight.Add(-1)
		if traced {
			root := span{ID: uint64(idx), Name: "gen.due", Start: msg.due, End: msg.start, Parent: -1}
			lr.spanMu.Lock()
			if len(lr.spans.spans)+2 <= maxSpansWritten {
				r := lr.spans.add(root)
				lr.spans.add(span{ID: uint64(idx), Name: "topics.Send", Start: msg.start, End: msg.done, Parent: r})
			}
			lr.spanMu.Unlock()
		}
	}()
}

// settle waits for every send to return and for the members' indication
// counts to agree in every group and stop moving, then stops the
// consumers and the cluster.
func (lr *liveRun) settle(limit time.Duration) bool {
	lr.sends.Wait()
	deadline := time.Now().Add(limit)
	prev := make([]int64, len(lr.indCnt))
	stable := 0
	ok := false
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		agree, moved := true, false
		for g := 0; g < lr.g; g++ {
			ref := int64(-1)
			for m := 0; m < lr.n; m++ {
				if _, gone := lr.lc.left(m, g); gone {
					continue
				}
				c := lr.indCnt[m*lr.g+g].Load()
				if ref >= 0 && c != ref {
					agree = false
				}
				ref = c
			}
		}
		for i := range prev {
			c := lr.indCnt[i].Load()
			moved = moved || c != prev[i]
			prev[i] = c
		}
		if agree && !moved {
			stable++
		} else {
			stable = 0
		}
		if stable >= 5 {
			ok = true
			break
		}
	}
	close(lr.stopConsumers)
	lr.consumers.Wait()
	lr.lc.stop()
	return ok
}

// probe sends one message per group from member 0 and waits until every
// member has it in every group; it returns how long that took.
func (lr *liveRun) probe(timeout time.Duration) (time.Duration, error) {
	t := time.Now()
	for g := 0; g < lr.g; g++ {
		lr.dispatch(g, send{Member: 0, Group: g, Size: lr.w.gen.Payload})
	}
	for time.Since(t) < timeout {
		all := true
		for m := 0; m < lr.n && all; m++ {
			for g := 0; g < lr.g && all; g++ {
				all = lr.indCnt[m*lr.g+g].Load() > 0
			}
		}
		if all {
			return time.Since(lr.t0), nil
		}
		time.Sleep(50 * time.Microsecond)
	}
	return 0, fmt.Errorf("set-up probe not delivered everywhere within %v", timeout)
}

// window is the counters read at one edge of the measured window.
type window struct {
	proc  procSample
	reg   registryView
	udp   udpCounters
	udpOK bool
}

func (lr *liveRun) edge() window {
	w := window{proc: readProc(), reg: readRegistry(lr.reg)}
	if !lr.w.cluster.Mesh { // the mesh sends no datagrams
		w.udp, w.udpOK = readUDP(snmpPath)
	}
	return w
}

func liveRunner(w liveWorkload) func(runArgs, *report) (outcome, error) {
	return func(a runArgs, rep *report) (outcome, error) { return runLive(w, a, rep) }
}

func runLive(w liveWorkload, args runArgs, rep *report) (outcome, error) {
	seed, trace := args.seed, args.trace
	c := w.cluster
	rep.note("open-loop: exponential inter-arrivals at %.0f msgs/s offered, per-send deadline %v, %v warm-up before the window",
		w.gen.Rate, w.deadline, w.warmup)
	transport, path := "UDP loopback, a socket and a free-running round clock per member", "loopback"
	if c.Mesh {
		transport, path = "in-process mesh, lockstep rounds across members", "in-process delivery"
	}
	rep.note("%s: n=%d, %d groups, %v rounds, batch window %v, BatchMax %d, K=%d R=%d",
		transport, c.N, c.Groups, c.Round, c.BatchWindow, c.BatchMax, c.K, c.R)
	rep.note("latency is %s plus round-clock time with no injected network delay, timed from each send's due time", path)

	// Set-up: build and probe the cluster several times; keep the last.
	win := time.Duration(args.seconds * float64(time.Second))
	total := w.warmup + win
	capacity := c.Groups + int(w.gen.Rate*total.Seconds()*1.05) + 1000
	var setups []float64
	var lr *liveRun
	for k := 0; k < w.setups; k++ {
		size := c.Groups
		if k == w.setups-1 {
			size = capacity
		}
		r, err := newLiveRun(w, size)
		if err != nil {
			return outcome{}, fmt.Errorf("set-up: %w", err)
		}
		d, err := r.probe(5 * time.Second)
		if err != nil {
			r.settle(0)
			r.mem.free()
			return outcome{}, err
		}
		setups = append(setups, d.Seconds())
		if k < w.setups-1 {
			r.settle(time.Second)
			r.mem.free()
			continue
		}
		lr = r
	}
	defer lr.mem.free()
	rep.set("setup_s", median(setups), "s")

	// The open-loop generator.
	stream := newSendStream(seed, w.gen)
	gen0 := lr.now()
	next := stream.Next()
	idx := c.Groups
	var a, b window
	var heap *heapSampler
	haveA := false
	peakHist, peakWait := int64(0), int64(0)
	lastPoll := time.Now()
	traceFrom := w.warmup + win/2
	var half procSample
	// cpuAt[k] is the process CPU time at the start of the window's slice k.
	cpuAt := make([]time.Duration, 0, subWindows+1)
	for {
		now := time.Duration(lr.now() - gen0)
		if !haveA && now >= w.warmup {
			a, haveA = lr.edge(), true
			cpuAt = append(cpuAt, a.proc.cpu)
			heap = startHeapSampler(5*time.Millisecond, win/subWindows, lr.heapBase)
		}
		if k := len(cpuAt); haveA && k < subWindows && now >= w.warmup+time.Duration(k)*win/subWindows {
			cpuAt = append(cpuAt, cpuTime())
		}
		if trace && !lr.tracing.Load() && now >= traceFrom {
			half = readProc()
			lr.spans = newSpanLog(lr.t0)
			lr.tracing.Store(true)
		}
		if now >= total {
			break
		}
		for next.Due <= now && next.Due < total {
			if idx >= capacity {
				lr.settle(0)
				return outcome{}, fmt.Errorf("schedule outran its %d-message table", capacity)
			}
			s := next
			s.Due += time.Duration(gen0)
			lr.dispatch(idx, s)
			idx++
			next = stream.Next()
		}
		if time.Since(lastPoll) >= 10*time.Millisecond {
			p := gaugePeaks(lr.reg, "core_history_len", "core_waiting_len")
			peakHist, peakWait = max(peakHist, p[0]), max(peakWait, p[1])
			lastPoll = time.Now()
		}
		wait := min(next.Due, total) - now
		if wait > time.Millisecond {
			wait = time.Millisecond
		}
		if wait > 0 {
			time.Sleep(wait)
		}
	}
	b = lr.edge()
	cpuAt = append(cpuAt, b.proc.cpu)
	heapPeaks := heap.Stop()
	heapPeaks = heapPeaks[:min(len(heapPeaks), subWindows)]
	lr.tracing.Store(false)
	settled := lr.settle(10 * time.Second)

	out := outcome{}
	if !settled {
		out.violations = append(out.violations, "members' indication streams did not converge after the run")
	}
	winStart, winEnd := gen0+int64(w.warmup), gen0+int64(total)
	lr.report(rep, &out, a, b, cpuAt, winStart, winEnd)
	rep.set("heap_peak_mb", quantile(heapPeaks, 0.25), "MB")
	rep.note("heap_peak_mb: peak live heap, as each collection found it, in each of %d slices of the window, lower quartile, above the %.2f MB "+
		"live just before the cluster started; the benchmark's %.1f MB of per-message tables are mapped outside the Go heap",
		subWindows, float64(lr.heapBase)/1e6, float64(lr.mem.bytes())/1e6)
	rep.set("core.history_peak", float64(peakHist), "count")
	rep.set("core.waiting_peak", float64(peakWait), "count")
	if trace {
		mid := gen0 + int64(traceFrom)
		untraced := float64(half.cpu-a.proc.cpu) / float64(lr.confirmedBetween(winStart, mid))
		traced := float64(b.proc.cpu-half.cpu) / float64(lr.confirmedBetween(mid, winEnd))
		rep.set("trace.overhead_share", traced/untraced-1, "share")
		linkDeliveries(lr.spans.spans)
		path, err := writeSpans(args.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed), lr.spans.spans)
		if err != nil {
			return out, err
		}
		rep.note("spans of the traced half written to %s", path)
	}
	return out, nil
}

// linkDeliveries makes each message's deliver@member spans children of its
// topics.Send span. Consumers record deliveries on their own goroutines,
// often before the send returns, so the link is made after the run.
func linkDeliveries(spans []span) {
	send := make(map[uint64]int32)
	for i, s := range spans {
		if s.Name == "topics.Send" {
			send[s.ID] = int32(i)
		}
	}
	for i := range spans {
		if p, ok := send[spans[i].ID]; ok && strings.HasPrefix(spans[i].Name, "deliver@") {
			spans[i].Parent = p
		}
	}
}
