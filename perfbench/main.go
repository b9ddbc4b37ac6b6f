// Command perfbench is the repository's benchmark: an open-loop,
// layer-by-layer ladder from the protocol core driven synchronously to the
// multi-group UDP runtime past its capacity. See README.md.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every metric measured is printed by name with its unit on lines starting
// with "#"; the last line is one JSON object with the workload's gated
// metrics (end-to-end ones untraced, per-layer ones traced). A run whose
// correctness audit fails exits non-zero and prints no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Metric names reported in the result line. They mirror BENCHMARK.json:
// every workload there reports all of them.
var (
	endToEnd = []string{
		"goodput_msgs_s", "deliver_p50_ms", "cpu_us_per_msg",
		"wire_bytes_per_msg", "heap_peak_mb", "setup_s",
	}
	perLayer = []string{
		"proc.allocs_per_msg", "proc.gc_cpu_share",
		"core.recoveries_per_kmsg", "core.retransmits_per_kmsg",
		"core.history_peak", "core.waiting_peak", "trace.overhead_share",
	}
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects every metric a run measured, plus notes on how.
type report struct {
	metrics map[string]metric
	notes   []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// outcome is what a workload run returns for the result line.
type outcome struct {
	attempted, failed int64
	violations        []string
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	// The benchmark measures at most two cores, so figures compare across
	// machines with more.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	rep := newReport()
	rep.note("workload %s: %s", *workload, w.why)
	rep.note("seed %d, %g s measured, trace %d, GOMAXPROCS %d, nproc %d, %s",
		*seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	out, err := w.run(runArgs{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}, rep)
	if err != nil {
		return err
	}
	if len(out.violations) > 0 {
		for i, v := range out.violations {
			if i == 20 {
				fmt.Fprintf(os.Stderr, "... %d more\n", len(out.violations)-i)
				break
			}
			fmt.Fprintln(os.Stderr, "violation:", v)
		}
		rep.note("AUDIT FAILED with %d violations: the figures below are diagnostics, not a measurement", len(out.violations))
		printReport(rep)
		return fmt.Errorf("correctness audit failed: %d violations", len(out.violations))
	}
	printReport(rep)
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := rep.metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("workload %s did not measure %s", *workload, n)
		}
		res.Metrics[n] = m
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", *workload)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printReport(r *report) {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("# %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
