// Command urcgc-load drives a multi-group cluster to saturation and
// reports what it sustained. It hosts the cluster itself — either over real
// loopback UDP sockets (the default, exercising the shared-socket demux and
// sendmmsg burst path) or over the in-process mesh (-mesh, protocol-only) —
// then fans thousands of concurrent client sessions across the groups. Each
// session loops: pick its group, Send, wait for the local confirm, record
// the latency. A session stops at a terminal error (its member stopped,
// fail-stopped or left the group) rather than retrying it. On exit it
// prints aggregate confirmed msgs/s plus the p50/p95/p99 confirm-latency
// quantiles, the failed sends by error type and how many members dropped
// out of a group; -json emits the same results as one machine-readable
// object instead, so load runs can be diffed across changes like
// BENCH_BASELINE.json. A run whose membership shrank exits 1: its
// throughput was confirmed by a collapsed group, not the one asked for.
//
//	urcgc-load -n 3 -groups 8 -sessions 2000 -duration 10s
//
// The tool is the load half of the observability story: point urcgc-inspect
// or curl at the -metrics listener of any member while it runs to watch the
// per-group counters move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/nodehttp"
	"urcgc/internal/obs"
	"urcgc/internal/topics"
)

func main() {
	var (
		n        = flag.Int("n", 3, "members in the cluster")
		groups   = flag.Int("groups", 8, "independent groups multiplexed over the shared transport")
		sessions = flag.Int("sessions", 1000, "concurrent client sessions fanned across groups and members")
		duration = flag.Duration("duration", 10*time.Second, "how long to drive load")
		k        = flag.Int("k", 3, "K parameter")
		round    = flag.Duration("round", 2*time.Millisecond, "round duration")
		batchWin = flag.Duration("batch-window", 500*time.Microsecond, "submission coalescing window (0 disables batching)")
		payload  = flag.Int("payload", 64, "bytes per message")
		mesh     = flag.Bool("mesh", false, "use the in-process mesh instead of loopback UDP sockets")
		metrics  = flag.String("metrics", "", "HTTP address serving member 0's /metrics and /status while loading (empty disables)")
		asJSON   = flag.Bool("json", false, "emit the results as one JSON object (msgs/s, quantiles, per-group counts)")
		verbose  = flag.Bool("v", false, "log per-member runtime warnings")
	)
	flag.Parse()

	if *sessions < 1 || *groups < 1 || *n < 3 {
		fmt.Fprintln(os.Stderr, "urcgc-load: need -sessions >= 1, -groups >= 1, -n >= 3")
		os.Exit(2)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}
	cfg := topics.Config{
		Config: core.Config{
			N: *n, K: *k, R: 2**k + 2, SelfExclusion: true,
			BatchMax: core.DefaultBatchMax,
		},
		Groups:        *groups,
		RoundDuration: *round,
		BatchWindow:   *batchWin,
		Logf:          logf,
	}

	nodes, stop, reg, err := startCluster(cfg, *mesh)
	if err != nil {
		fmt.Fprintln(os.Stderr, "urcgc-load:", err)
		os.Exit(1)
	}
	defer stop()

	if *metrics != "" && reg != nil {
		mux := nodehttp.Mux(nodehttp.Options{Registry: reg, Status: nodes[0].Status})
		ln, err := nodehttp.Serve(*metrics, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urcgc-load: metrics:", err)
			os.Exit(1)
		}
		fmt.Fprintf(progress(*asJSON), "member 0 observability at http://%s/metrics\n", ln.Addr())
	}

	transport := "udp"
	if *mesh {
		transport = "mesh"
	}
	fmt.Fprintf(progress(*asJSON), "cluster up: n=%d groups=%d transport=%s round=%v batch-window=%v\n",
		*n, *groups, transport, *round, *batchWin)
	fmt.Fprintf(progress(*asJSON), "driving %d sessions for %v...\n", *sessions, *duration)

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	var (
		confirmed atomic.Int64
		failed    atomic.Int64
		errCounts [len(errTypes)]atomic.Int64
		wg        sync.WaitGroup
	)
	body := make([]byte, *payload)
	// Each session keeps its own latency slice; they are merged after the
	// run so the hot loop never contends on a shared structure.
	lats := make([][]time.Duration, *sessions)
	start := time.Now()
	for s := 0; s < *sessions; s++ {
		s := s
		g := uint32(s % *groups)
		member := mid.ProcID(s % *n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				t0 := time.Now()
				_, err := nodes[member].Send(ctx, g, body, nil)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					failed.Add(1)
					i := errType(err)
					errCounts[i].Add(1)
					if errTypes[i].err != nil {
						return // terminal: retrying would only spin
					}
					continue
				}
				lats[s] = append(lats[s], time.Since(t0))
				confirmed.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	total := confirmed.Load()
	res := loadResult{
		N:            *n,
		Groups:       *groups,
		Sessions:     *sessions,
		Transport:    transport,
		ElapsedMs:    float64(elapsed.Nanoseconds()) / 1e6,
		Confirmed:    total,
		Failed:       failed.Load(),
		ErrorsByType: make(map[string]int64, len(errTypes)),
		MembersLeft:  membersLeft(nodes, *groups),
		MsgsPerSec:   float64(total) / elapsed.Seconds(),
		GroupCounts:  nodes[0].GroupCounts(),
	}
	for i, t := range errTypes {
		res.ErrorsByType[t.name] = errCounts[i].Load()
	}
	if len(all) > 0 {
		res.P50Ms = ms(quantile(all, 0.50))
		res.P95Ms = ms(quantile(all, 0.95))
		res.P99Ms = ms(quantile(all, 0.99))
		res.MaxMs = ms(all[len(all)-1])
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "urcgc-load:", err)
			os.Exit(1)
		}
	} else {
		printResult(res, all, elapsed)
	}
	if res.MembersLeft > 0 {
		fmt.Fprintf(os.Stderr, "urcgc-load: membership shrank: %d of %d members dropped out of a group during the run\n",
			res.MembersLeft, res.N)
		stop()
		os.Exit(1)
	}
}

// printResult renders the human-readable summary.
func printResult(res loadResult, all []time.Duration, elapsed time.Duration) {
	total := res.Confirmed

	fmt.Printf("\n--- urcgc-load results ---\n")
	fmt.Printf("confirmed   %d msgs in %v\n", total, elapsed.Round(time.Millisecond))
	fmt.Printf("aggregate   %.0f msgs/s across %d groups\n", res.MsgsPerSec, res.Groups)
	if res.Failed > 0 {
		fmt.Printf("failed      %d sends:", res.Failed)
		for _, t := range errTypes {
			fmt.Printf(" %s=%d", t.name, res.ErrorsByType[t.name])
		}
		fmt.Println()
	}
	if res.MembersLeft > 0 {
		fmt.Printf("members left %d of %d\n", res.MembersLeft, res.N)
	}
	if len(all) > 0 {
		fmt.Printf("confirm latency  p50 %v  p95 %v  p99 %v  max %v\n",
			quantile(all, 0.50), quantile(all, 0.95), quantile(all, 0.99), all[len(all)-1])
	}
	fmt.Printf("per-group processed at member 0:")
	for g, c := range res.GroupCounts {
		fmt.Printf(" g%d=%d", g, c)
	}
	fmt.Println()
}

// loadResult is the -json shape: one flat object per run so results diff
// cleanly across changes, BENCH_BASELINE.json style. Latencies are
// milliseconds to match the baseline file's convention.
type loadResult struct {
	N         int     `json:"n"`
	Groups    int     `json:"groups"`
	Sessions  int     `json:"sessions"`
	Transport string  `json:"transport"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Confirmed int64   `json:"confirmed"`
	Failed    int64   `json:"failed"`
	// ErrorsByType splits Failed by error: stopped, killed and left are
	// terminal (the session stopped there), other is retried.
	ErrorsByType map[string]int64 `json:"errors_by_type"`
	// MembersLeft counts the members that dropped out of at least one
	// group: self-excluded, fail-stopped, or excluded from a running
	// member's view. Nonzero makes the command exit 1.
	MembersLeft int     `json:"members_left"`
	MsgsPerSec  float64 `json:"msgs_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
	GroupCounts []int64 `json:"group_counts_member0"`
}

// errTypes names the Send errors a session can meet; the terminal ones
// carry their sentinel, and the last entry catches everything else.
var errTypes = [...]struct {
	name string
	err  error
}{
	{"stopped", topics.ErrStopped},
	{"killed", topics.ErrKilled},
	{"left", topics.ErrLeft},
	{"other", nil},
}

// errType returns err's index in errTypes.
func errType(err error) int {
	for i, t := range errTypes {
		if t.err != nil && errors.Is(err, t.err) {
			return i
		}
	}
	return len(errTypes) - 1
}

// membersLeft counts the members that dropped out of at least one group
// during the run: those that left it or were fail-stopped, and those a
// member still running the group no longer holds alive in its view.
func membersLeft(nodes []*topics.MultiNode, groups int) int {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	gone := make([]bool, len(nodes))
	for i, n := range nodes {
		for g := uint32(0); g < uint32(groups); g++ {
			if _, left := n.Left(g); left || n.Killed() {
				gone[i] = true
				continue
			}
			st, err := n.GroupStatus(ctx, g)
			if err != nil {
				continue
			}
			for q, alive := range st.Alive {
				if !alive && q < len(gone) {
					gone[q] = true
				}
			}
		}
	}
	count := 0
	for _, g := range gone {
		if g {
			count++
		}
	}
	return count
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// progress picks where human chatter goes: stderr under -json so stdout
// stays one clean JSON object, stdout otherwise.
func progress(asJSON bool) *os.File {
	if asJSON {
		return os.Stderr
	}
	return os.Stdout
}

// quantile reads the q-th quantile from an ascending-sorted sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(q * float64(len(sorted)-1))
	return sorted[i].Round(10 * time.Microsecond)
}

// startCluster hosts cfg.N members in-process (mesh) or each on its own
// loopback UDP socket, and returns them with their stop function. Over UDP
// only member 0 publishes metrics.
func startCluster(cfg topics.Config, mesh bool) ([]*topics.MultiNode, func(), *obs.Registry, error) {
	nodes := make([]*topics.MultiNode, cfg.N)
	if mesh {
		c, err := topics.NewMultiCluster(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		for i := range nodes {
			nodes[i] = c.Node(mid.ProcID(i))
		}
		c.Start()
		return nodes, c.Stop, nil, nil
	}
	peers, err := loopbackPorts(cfg.N)
	if err != nil {
		return nil, nil, nil, err
	}
	stop := func() {
		for _, n := range nodes {
			if n != nil {
				n.Stop()
			}
		}
	}
	var reg *obs.Registry
	for i := range nodes {
		nc := cfg
		nc.Self = mid.ProcID(i)
		nc.Peers = peers
		if i == 0 {
			reg = obs.New()
			nc.Metrics = reg
		}
		if nodes[i], err = topics.NewMultiNode(nc); err != nil {
			stop()
			return nil, nil, nil, err
		}
	}
	for _, n := range nodes {
		n.Start()
	}
	return nodes, stop, reg, nil
}

// loopbackPorts reserves n distinct loopback UDP ports by binding and
// immediately releasing them; the cluster then binds the same addresses.
// The window between release and rebind is small and this is a load tool,
// not a production deployment.
func loopbackPorts(n int) ([]string, error) {
	addrs := make([]string, n)
	conns := make([]*net.UDPConn, n)
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		conns[i] = c
		addrs[i] = c.LocalAddr().String()
	}
	for _, c := range conns {
		c.Close()
	}
	return addrs, nil
}
