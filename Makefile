GO ?= go

.PHONY: all build test race vet check bench bench-diff bench-smoke bench-throughput bench-groups chaos-smoke chaos-soak inspect-smoke trace-smoke join-smoke capture-smoke perfbench-build clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the concurrency-sensitive packages under the race detector:
# the live runtime (the protocol loop, shared-socket demux, the burst sender,
# Status/Snapshot sampling; rt's tests drive it as a single-group member),
# the protocol core it drives, the flight recorder and health evaluator
# (sampler goroutine vs concurrent readers), the cluster inspector
# (parallel probes against live nodes), the cross-node trace stitcher
# (parallel /trace collection), and the fault injection layer whose
# checker audits invariants across restarts (the rt and core lists include
# the join/state-transfer paths: MultiCluster.Restart swaps each group's
# process on its protocol loop while Status/Send race it).
race:
	$(GO) test -race ./internal/rt/... ./internal/topics/... ./internal/core/... ./internal/obs/... ./internal/health/... ./internal/inspect/... ./internal/stitch/... ./internal/faultrt/...

# check is the tier-1 gate: everything builds, vets clean, passes the
# full suite, the concurrency-sensitive packages pass under -race, every
# benchmark body still runs (one iteration each), a seeded chaos soak
# upholds the uniform invariants under the race detector, and a live
# three-member cluster inspects healthy end to end through the real
# binaries — including the forensic pipeline: capture dumps from real
# nodes must replay offline to a clean verdict. Last, the benchmark module
# must still build and pass its own tests against this tree.
check: vet test race bench-smoke bench-throughput bench-groups chaos-smoke inspect-smoke trace-smoke join-smoke capture-smoke perfbench-build

# perfbench-build vets and tests the benchmark module (perfbench/, its own
# go.mod resolving urcgc from this tree) with the offline settings
# perfbench/run.sh builds it with, so a change to the public surface it
# uses (wire, core, topics, faultrt) fails here rather than at benchmark
# time.
perfbench-build:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) vet ./...
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) test -count 1 ./...

# inspect-smoke boots three urcgc-node processes, points urcgc-inspect at
# their observability endpoints, and requires a healthy one-shot verdict —
# the end-to-end gate for the flight recorder, /healthz and the
# cluster-wide divergence detector.
inspect-smoke:
	sh scripts/inspect_smoke.sh

# trace-smoke boots a three-member two-group cluster with lifecycle
# tracing on and requires urcgc-trace to stitch at least one cross-node
# message timeline out of the members' /trace reports — the end-to-end
# gate for per-group spans, /trace?group=N and the (group, MID) join.
trace-smoke:
	sh scripts/trace_smoke.sh

# join-smoke is the dynamic-membership end-to-end gate: three urcgc-node
# processes form a group, one is kill -9'd, the survivors exclude it, and
# a restart with -join must state-transfer back in, be re-admitted into
# every view, answer /healthz 200 and leave urcgc-inspect healthy. A
# failure with URCGC_CAPTURE_DIR set preserves the live members' /capture
# dumps there for urcgc-replay (CI uploads them as artifacts).
join-smoke:
	sh scripts/join_smoke.sh

# capture-smoke is the forensic-pipeline end-to-end gate: three urcgc-node
# processes with the frame flight recorder on (-capture), a burst of
# multicast traffic, then urcgc-replay collects every member's /capture
# dump and must reproduce a clean verdict offline — from the live
# endpoints and again from the saved dump files.
capture-smoke:
	sh scripts/capture_smoke.sh

# chaos-smoke is the CI chaos gate: a short seeded soak (one crash, one
# healed partition, 1/100 omission bursts, background reordering and
# duplication) under -race, audited for uniform atomicity and ordering;
# plus the rolling-restart smoke (every member kill -9'd and rejoined in
# turn under omissions, invariants audited across incarnations).
chaos-smoke:
	$(GO) test -race -run 'TestSmokeSoak|TestSameSeedSamePlan|TestRollingRestartSmoke' -count 1 ./internal/chaos/

# chaos-soak is the 60-second acceptance soak (same shape, longer wall
# clock), which also asserts member health degraded under the faults and
# recovered after; the five-member rolling-restart soak (every member
# kill -9'd and rejoined sequentially under 1/100 omission, the uniform
# invariants audited across incarnations); plus the five-member
# partition/heal demo: inspect healthy -> divergence naming the cut-off
# member -> healthy again. Also available interactively as
# `go run ./cmd/urcgc-chaos`.
chaos-soak:
	URCGC_CHAOS_SOAK=1 $(GO) test -race -run 'TestLongSoak|TestRollingRestartSoak' -count 1 -timeout 10m -v ./internal/chaos/
	$(GO) test -race -run TestInspectPartitionRecovery -count 1 -timeout 10m -v ./internal/inspect/

# bench runs the full baseline suite at real benchtimes and refreshes
# BENCH_BASELINE.json (the previous recording is preserved under
# "previous" for before/after comparison). Expect a few minutes.
bench:
	$(GO) run ./cmd/urcgc-bench -baseline BENCH_BASELINE.json

# bench-diff is the perf regression guard: re-run the guarded families
# (Wire codec, ThroughputSaturation, GroupScaling) fresh and fail on a
# >25% ns/op regression against the recorded BENCH_BASELINE.json. Not in
# `check` — absolute timings on shared CI runners are too noisy to gate
# merges on; run it locally around perf-sensitive changes.
bench-diff:
	$(GO) run ./cmd/urcgc-bench -diff BENCH_BASELINE.json

# bench-smoke executes every benchmark once — a compile-and-run gate,
# not a measurement.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-throughput is the batched hot-path smoke: a short run of the
# ThroughputSaturation family (msgs/sec x cluster size x batch size) on
# the live mesh runtime, exercising the coalescing sender and DataBatch
# frames under real concurrency. Full-length numbers are recorded by
# `make bench` into BENCH_BASELINE.json.
bench-throughput:
	$(GO) test -bench 'BenchmarkThroughputSaturation' -benchtime 500ms -run '^$$' .

# bench-groups is the multi-group smoke: two groups on each member's one
# protocol loop must sustain at least 1.5x the single-group aggregate
# msgs/s, or the runtime has regressed into serializing its groups. Full-length
# scaling points (1/2/4/8 groups) are recorded by `make bench` into
# BENCH_BASELINE.json under the GroupScaling family.
bench-groups:
	URCGC_BENCH_GROUPS=1 $(GO) test -run TestGroupScalingSmoke -count 1 -v .

clean:
	$(GO) clean ./...
