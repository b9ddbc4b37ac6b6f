package main

import (
	"fmt"
	"sort"
)

type workload struct {
	why string
	run func(a runArgs, rep *report) (outcome, error)
}

// runArgs are one run's command-line settings.
type runArgs struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
}

var workloads = map[string]workload{
	"core-sync": {
		why: "ladder rung (b): n=9 core.Process members in lockstep rounds over an in-memory " +
			"transport that encodes and decodes every PDU; wire and core do all the work, " +
			"counts repeat exactly, and n=9 makes the per-member vector metadata visible",
		run: runCoreSyncWorkload,
	},
	"mesh-g8": {
		why: "ladder rung (c) under load: the mesh with 8 groups at 20k msgs/s open-loop (two fifths " +
			"of its measured clean capacity), 1 in 8 " +
			"payloads of 1 KiB: per-message CPU of wire, core, the coalescer and the shard loops, " +
			"batching, and no socket or kernel",
		run: liveRunner(meshG8),
	},
	"steady-g1": {
		why: "UDP loopback, n=3, 1 group, 20 ms rounds, open-loop ~1k msgs/s: CPU near idle, so " +
			"latency comes from the free-running round clocks, the coalescer window and the loop " +
			"hand-offs, and every datagram crosses a socket and the kernel",
		run: liveRunner(steadyG1),
	},
	"load-g8": {
		why: "UDP loopback, n=3, 8 groups, 2 ms rounds, open-loop at about half the clean " +
			"capacity: per-message CPU, batching, the shard loops and the shared socket's " +
			"burst path dominate",
		run: liveRunner(loadG8),
	},
	"overload-g8": {
		why: "load-g8 offered at twice mesh-g8's clean capacity with a per-send deadline: the same " +
			"layers past capacity, where queues drop and members get excluded",
		run: liveRunner(overloadG8),
	},
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func runCoreSyncWorkload(a runArgs, rep *report) (outcome, error) {
	seed, trace := a.seed, a.trace
	p := coreSync
	rep.note("synchronous loop, no clock in the protocol: n=%d K=%d R=%d BatchMax=%d, %d msgs per member per subrun for %d subruns, "+
		"1 in %d with a dependency, 1 in %d data frame deliveries dropped, coordinator crash at round %d",
		p.N, p.K, p.R, p.BatchMax, p.PerSubrun, p.Subruns, p.DepOneIn, p.DropOneIn, p.crashRound())
	rep.note("times are on the driving thread's CPU clock (host steal excluded): one thread drives all members, no network delay; " +
		"latencies run from Submit")
	res, err := runCoreSync(seed, a.seconds, trace)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	out.violations = res.violations
	// Wall-clock figures take the quartile of passes least disturbed by the
	// machine (a shared host only ever slows a pass down); CPU and memory
	// figures take the median pass.
	per := func(q float64, f func(p syncPass) float64) float64 {
		xs := make([]float64, len(res.passes))
		for i, p := range res.passes {
			xs[i] = f(p)
		}
		return quantile(xs, q)
	}
	c := res.passes[0].syncCounts
	for _, p := range append(append([]syncPass{res.heapPass}, res.passes...), res.traced...) {
		out.attempted += int64(p.Submitted)
		if p.syncCounts != c {
			out.violations = append(out.violations, "two passes of one seed gave different protocol counts")
		}
	}
	rep.note("%d untraced passes of %d rounds, %d messages each", len(res.passes), c.Rounds, c.Submitted)
	msgs := float64(c.Delivered)
	// Every time here is CPU-bound, so every pass's times are scaled to the
	// reference host speed by its own calibration.
	hostReport(rep, res.calib)
	timing := func(name, unit string, q float64, f func(p syncPass) float64) float64 {
		scaled := per(q, func(p syncPass) float64 {
			if unit == "1/s" {
				return f(p) * p.Slowdown
			}
			return f(p) / p.Slowdown
		})
		rep.set(name, scaled, unit)
		return scaled
	}
	timing("goodput_msgs_s", "1/s", 0.75, func(p syncPass) float64 { return msgs / p.Steady.Seconds() })
	timing("confirm_p50_ms", "ms", 0.25, func(p syncPass) float64 { return p.ConfirmP50 })
	timing("confirm_p99_ms", "ms", 0.25, func(p syncPass) float64 { return p.ConfirmP99 })
	timing("deliver_p50_ms", "ms", 0.25, func(p syncPass) float64 { return p.DeliverP50 })
	timing("deliver_p99_ms", "ms", 0.25, func(p syncPass) float64 { return p.DeliverP99 })
	cpuPerMsg := timing("cpu_us_per_msg", "us", 0.5, func(p syncPass) float64 { return float64(p.CPU) / 1e3 / msgs })
	rep.set("wire_bytes_per_msg", float64(c.DataBytes+c.CtlBytes)/msgs, "B")
	rep.set("heap_peak_mb", res.heapPass.HeapMB, "MB")
	timing("setup_s", "s", 0.5, func(p syncPass) float64 { return p.Setup.Seconds() })
	rep.set("failed_share", 0, "share")
	rep.set("members_lost", 0, "count")
	rep.set("confirm_p50_rounds", float64(c.ConfirmP50Rounds), "rounds")
	rep.set("confirm_p99_rounds", float64(c.ConfirmP99Rounds), "rounds")
	rep.set("deliver_p99_rounds", float64(c.DeliverP99Rounds), "rounds")
	rep.set("stall_rounds", float64(c.StallRounds), "rounds")

	rep.set("proc.allocs_per_msg", per(0.5, func(p syncPass) float64 { return float64(p.Allocs) / msgs }), "count")
	rep.set("proc.gc_cpu_share", per(0.5, func(p syncPass) float64 { return ratio(p.GCCPU, p.CPU.Seconds()) }), "share")
	rep.set("wire.data_bytes_per_msg", float64(c.DataBytes)/msgs, "B")
	rep.set("wire.ctl_bytes_per_msg", float64(c.CtlBytes)/msgs, "B")
	rep.set("wire.frames_per_msg", float64(c.Frames)/msgs, "count")
	rep.set("core.ctl_frames_per_subrun", float64(c.CtlFrames)/float64(c.Subruns), "count")
	rep.set("core.history_peak", float64(c.HistoryPeak), "count")
	rep.set("core.waiting_peak", float64(c.WaitingPeak), "count")
	rep.set("core.recoveries_per_kmsg", 1000*float64(c.Recoveries)/msgs, "count")
	rep.set("core.retransmits_per_kmsg", 1000*float64(c.Retransmits)/msgs, "count")
	rep.set("core.crash_detect_rounds", float64(c.CrashDetectRounds), "rounds")
	rep.set("core.rounds_to_stable_p50", float64(c.StableP50Rounds), "rounds")

	if trace {
		traced := make([]float64, len(res.traced))
		for i, p := range res.traced {
			traced[i] = float64(p.CPU) / 1e3 / msgs / p.Slowdown
		}
		rep.set("trace.overhead_share", median(traced)/cpuPerMsg-1, "share")
		for name, metricName := range map[string]string{
			"core.Submit":          "core.submit_ns",
			"core.StartRound":      "core.startround_ns",
			"core.Recv.data":       "core.recv_ns.data",
			"core.Recv.request":    "core.recv_ns.request",
			"core.Recv.decision":   "core.recv_ns.decision",
			"core.Recv.recover":    "core.recv_ns.recover",
			"core.Recv.retransmit": "core.recv_ns.retransmit",
		} {
			if v, ok := meanSelf(res.spans, name); ok {
				rep.set(metricName, v, "ns")
			}
		}
		for name, metricName := range map[string]string{
			"wire.MarshalAppend": "wire.encode_ns_per_frame",
			"wire.Unmarshal":     "wire.decode_ns_per_frame",
		} {
			if t := res.spans[name]; t != nil && t.Count > 0 {
				rep.set(metricName, float64(t.Dur)/float64(t.Count), "ns")
			}
		}
		rep.set("wire.encode_allocs_per_frame", res.encAllocs, "count")
		rep.set("wire.decode_allocs_per_frame", res.decAllocs, "count")
		path, err := writeSpans(a.traceDir, fmt.Sprintf("core-sync-seed%d.jsonl", seed), res.firstSpans)
		if err != nil {
			return out, err
		}
		rep.note("spans of the first traced pass written to %s", path)
	}
	return out, nil
}

// hostReport records the calibration timings of a run.
func hostReport(rep *report, calib []float64) {
	sd := median(calib) / float64(refCalibration)
	rep.set("host.slowdown", sd, "ratio")
	rep.note("host %.3gx slower than the reference (calibration loop %.3g ms vs %v, median over passes): "+
		"CPU-bound figures are scaled to the reference pass by pass", sd, median(calib)/1e6, refCalibration)
}
