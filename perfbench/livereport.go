package main

import (
	"fmt"
	"strings"
	"time"

	"urcgc/internal/mid"
)

// subWindows is how many equal slices of the measured window latency
// percentiles and CPU per message are taken over. The reported figure is
// the slice at the lower quartile: the host's other tenants only ever add
// delay and CPU, so the quarter of slices they disturbed least reads the
// program most steadily, while a slower program moves every slice.
const subWindows = 10

// confirmedBetween counts the confirmed sends due in [from, to).
func (lr *liveRun) confirmedBetween(from, to int64) int64 {
	var n int64
	for i := int(lr.count.Load()) - 1; i >= 0; i-- {
		m := &lr.msgs[i]
		if m.due >= from && m.due < to && m.state == sendConfirmed {
			n++
		}
	}
	return n
}

// report derives every metric of a live run from the message table and
// the counters read at the window's edges, and audits the run.
func (lr *liveRun) report(rep *report, out *outcome, a, b window, cpuAt []time.Duration, winStart, winEnd int64) {
	winDur := time.Duration(winEnd - winStart)
	mesh := lr.w.cluster.Mesh
	total := int(lr.count.Load())
	left := make([][]bool, lr.g) // [group][member]
	lostPairs := 0
	reasons := map[string]int{}
	for g := range left {
		left[g] = make([]bool, lr.n)
		for m := range left[g] {
			var why string
			if why, left[g][m] = lr.lc.left(m, g); left[g][m] {
				lostPairs++
				reasons[fmt.Sprintf("member %d %s", m, why)]++
			}
		}
	}
	for r, n := range reasons {
		rep.note("%s in %d groups", r, n)
	}

	// Exactly-once delivery of every confirmed message at every member
	// still in its group.
	for i := 0; i < total; i++ {
		msg := &lr.msgs[i]
		for m := 0; m < lr.n; m++ {
			c := lr.delivCnt[i*lr.n+m]
			switch {
			case c > 1:
				out.violations = append(out.violations, fmt.Sprintf("message %d indicated %d times at member %d", i, c, m))
			case c == 0 && msg.state == sendConfirmed && !left[msg.group][m]:
				out.violations = append(out.violations, fmt.Sprintf("confirmed message %d (member %d group %d) never indicated at member %d", i, msg.member, msg.group, m))
			}
		}
	}
	for _, bad := range lr.bad {
		out.violations = append(out.violations, bad...)
	}
	// Uniform atomicity and causal order, per group.
	for g := 0; g < lr.g; g++ {
		logs := make(map[mid.ProcID][]auditEntry, lr.n)
		var surv []mid.ProcID
		for m := 0; m < lr.n; m++ {
			raw := lr.logs[m*lr.g+g]
			entries := make([]auditEntry, len(raw))
			for k, v := range raw {
				msg := &lr.msgs[v>>32]
				entries[k].ID = mid.MID{Proc: mid.ProcID(msg.member), Seq: mid.Seq(uint32(v))}
				if !msg.dep.IsZero() {
					entries[k].Deps = mid.DepList{msg.dep}
				}
			}
			logs[mid.ProcID(m)] = entries
			if !left[g][m] {
				surv = append(surv, mid.ProcID(m))
			}
		}
		for _, v := range auditGroup(logs, surv) {
			out.violations = append(out.violations, fmt.Sprintf("group %d: %s", g, v))
		}
	}

	// Outcomes and latencies of the sends due in the window.
	var confirmed int64
	sliceConfirmed := make([]int64, subWindows)
	conf := make([][]float64, subWindows)
	del := make([][]float64, subWindows)
	var late []float64
	for i := lr.g; i < total; i++ {
		msg := &lr.msgs[i]
		if msg.due < winStart || msg.due >= winEnd {
			continue
		}
		out.attempted++
		late = append(late, float64(msg.start-msg.due)/1e6)
		if msg.state != sendConfirmed {
			out.failed++
			continue
		}
		confirmed++
		slice := int(int64(subWindows) * (msg.due - winStart) / (winEnd - winStart))
		sliceConfirmed[slice]++
		conf[slice] = append(conf[slice], float64(msg.done-msg.due)/1e6)
		last, all := int64(0), true
		for m := 0; m < lr.n; m++ {
			if left[msg.group][m] {
				continue
			}
			at := int64(lr.delivAt[i*lr.n+m])
			all = all && at > 0
			last = max(last, (at-1)*1e3)
		}
		if all {
			del[slice] = append(del[slice], float64(last-msg.due)/1e6)
		}
	}
	perSlice := func(xs [][]float64, want float64) float64 {
		var vals []float64
		lowest := want
		for _, s := range xs {
			if v, q, ok := percentile(s, want); ok {
				vals = append(vals, v)
				lowest = min(lowest, q)
			}
		}
		if lowest < want {
			rep.note("a slice had too few samples for p%g: its tail figure steps down to p%.3g", 100*want, 100*lowest)
		}
		return quantile(vals, 0.25)
	}
	fmsgs := float64(confirmed)
	round := lr.w.cluster.Round
	rep.note("%d sends due in the %v window, %d confirmed within the %v deadline; percentiles are the lower quartile over %d slices of the window",
		out.attempted, winDur, confirmed, lr.w.deadline, subWindows)
	rep.set("goodput_msgs_s", fmsgs/winDur.Seconds(), "1/s")
	p50 := perSlice(conf, 0.50)
	rep.set("confirm_p50_ms", p50, "ms")
	rep.set("confirm_p99_ms", perSlice(conf, 0.99), "ms")
	rep.set("deliver_p50_ms", perSlice(del, 0.50), "ms")
	rep.set("deliver_p99_ms", perSlice(del, 0.99), "ms")
	cpu := b.proc.cpu - a.proc.cpu
	var cpuSlices []float64
	for k := 0; k+1 < len(cpuAt) && k < subWindows; k++ {
		if sliceConfirmed[k] > 0 {
			cpuSlices = append(cpuSlices, float64(cpuAt[k+1]-cpuAt[k])/1e3/float64(sliceConfirmed[k]))
		}
	}
	rep.set("cpu_us_per_msg", quantile(cpuSlices, 0.25), "us")
	// The mesh delivers every frame by function call, so the bytes the
	// members demultiplex are the bytes sent; over UDP the senders count.
	bytesSent := deltaName(a, b, "topics_send_bytes_total")
	if mesh {
		bytesSent = deltaName(a, b, "topics_recv_bytes_total")
	}
	rep.set("wire_bytes_per_msg", ratio(float64(bytesSent), fmsgs), "B")
	rep.set("failed_share", ratio(float64(out.failed), float64(out.attempted)), "share")
	rep.set("members_lost", float64(max(lostPairs, lr.declaredLost(b))), "count")
	rep.set("offered_msgs_s", lr.w.gen.Rate, "1/s")

	if v, _, ok := percentile(late, 0.99); ok {
		rep.set("gen.late_p99_ms", v, "ms")
	}
	rep.set("gen.inflight_peak", float64(lr.inflightPeak.Load()), "count")
	rep.set("proc.allocs_per_msg", ratio(float64(b.proc.allocs-a.proc.allocs), fmsgs), "count")
	rep.set("proc.gc_cpu_share", ratio(b.proc.gcCPU-a.proc.gcCPU, cpu.Seconds()), "share")

	rep.set("rt.confirm_p50_rounds", p50/(float64(round)/1e6), "rounds")
	rep.set("rt.round_stretch", roundStretch(a, b, winDur, round), "ratio")
	// DataBatch frames only: a single message travels as plain DATA.
	rep.set("rt.msgs_per_batch_frame",
		ratio(float64(delta(a, b, "rt_batch_msgs_total")), float64(delta(a, b, "rt_batch_frames_total"))), "count")
	rep.set("rt.coalesce_flush_msgs_mean",
		ratio(float64(delta(a, b, "rt_coalesce_flush_msgs_sum_us"))/1e6, float64(delta(a, b, "rt_coalesce_flush_msgs_count"))), "count")
	rep.set("rt.inbox_dropped", float64(delta(a, b, "rt_inbox_dropped_total")), "count")
	rep.set("rt.indications_dropped", float64(delta(a, b, "rt_indications_dropped_total")), "count")

	rep.set("topics.frames_in_per_msg", ratio(float64(deltaName(a, b, "topics_recv_datagrams_total")), fmsgs), "count")
	rep.set("topics.shard_dropped", float64(deltaName(a, b, "topics_shard_dropped_total")), "count")
	if !mesh {
		// Socket path only: the mesh has no sender queue and its lockstep
		// clock never skips a tick.
		datagrams := float64(deltaName(a, b, "topics_send_datagrams_total"))
		rep.set("topics.datagrams_per_msg", ratio(datagrams, fmsgs), "count")
		rep.set("topics.datagrams_per_burst", ratio(datagrams, float64(deltaName(a, b, "topics_send_bursts_total"))), "count")
		rep.set("topics.ticks_skipped", float64(deltaName(a, b, "topics_ticks_skipped_total")), "count")
		rep.set("topics.send_dropped", float64(deltaName(a, b, "topics_send_dropped_total")), "count")
	}
	var discards int64
	for _, n := range []string{"envelope", "group", "badsrc", "decode", "oversize", "readerr"} {
		discards += deltaName(a, b, "topics_drop_"+n+"_total")
	}
	rep.set("topics.ingress_discards", float64(discards), "count")

	switch {
	case mesh:
	case a.udpOK && b.udpOK:
		rep.set("udp.rcvbuf_errors", float64(b.udp.RcvbufErrors-a.udp.RcvbufErrors), "count")
		rep.set("udp.out_datagrams_per_msg", ratio(float64(b.udp.OutDatagrams-a.udp.OutDatagrams), fmsgs), "count")
	default:
		rep.note("%s unavailable: udp.* metrics absent", snmpPath)
	}
	rep.set("core.recoveries_per_kmsg", ratio(1000*float64(delta(a, b, "core_recoveries_total")), fmsgs), "count")
	rep.set("core.retransmits_per_kmsg", ratio(1000*float64(delta(a, b, "core_retransmits_total")), fmsgs), "count")
}

// delta is the change of a base name's sum over all its series.
func delta(a, b window, base string) int64 { return b.reg.sum[base] - a.reg.sum[base] }

// deltaName is the change of one exactly named series.
func deltaName(a, b window, name string) int64 { return b.reg.byName[name] - a.reg.byName[name] }

// roundStretch is the window's wall time over the rounds each member's
// group session advanced in it (two per subrun) times the configured round,
// averaged over sessions: 1 means the round clock kept time.
func roundStretch(a, b window, win, round time.Duration) float64 {
	var sum float64
	var n int
	for name, v := range b.reg.byName {
		if baseName(name) != "core_subrun" {
			continue
		}
		if d := v - a.reg.byName[name]; d > 0 {
			sum += float64(win) / (float64(2*d) * float64(round))
			n++
		}
	}
	return ratio(sum, float64(n))
}

// declaredLost counts, per group, the members the most pessimistic live
// view has declared crashed.
func (lr *liveRun) declaredLost(b window) int {
	minAlive := make([]int64, lr.g)
	for g := range minAlive {
		minAlive[g] = int64(lr.n)
	}
	for name, v := range b.reg.byName {
		if baseName(name) != "core_alive_count" || v == 0 { // 0: view never changed
			continue
		}
		var g int
		if _, err := fmt.Sscanf(labelValue(name, "group"), "%d", &g); err == nil && g < lr.g {
			minAlive[g] = min(minAlive[g], v)
		}
	}
	lost := 0
	for _, a := range minAlive {
		lost += lr.n - int(a)
	}
	return lost
}

// labelValue extracts one label's value from a Prometheus-style name.
func labelValue(name, key string) string {
	i := strings.Index(name, key+`="`)
	if i < 0 {
		return ""
	}
	rest := name[i+len(key)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}
