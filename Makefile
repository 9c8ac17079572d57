GO ?= go

.PHONY: all build test vet race check bench bench-smoke bench-json benchgate \
	coverage coverage-check figures telemetry-smoke durability journalcheck \
	shardcheck remotecheck scalecheck loadcheck fuzzcheck profile-cluster \
	conformance

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# telemetry-smoke drives the observability endpoint end to end: real
# harness activity, a live /metrics scrape, and assertions on the
# advertised metric names and trace span hierarchy.
telemetry-smoke:
	$(GO) test -run TestTelemetrySmoke -count=1 ./internal/telemetry

# durability runs the crash-simulation tests for the campaign journal's
# write-ahead manifest protocol (fsync ordering, failed-seal refusal).
durability:
	$(GO) test -run 'TestCreateManifest' -count=1 ./internal/campaign

# journalcheck drives the journal's crash story: torn-tail and bit-flip
# recovery at every offset, failed-seal rewind and the broken-journal
# latch, Load/Open/Resume/merge refusing a journal that is not v2 (the
# only encoding read or written) without touching it, in-process and
# real-process (SIGKILL) resumes byte-identical to uninterrupted runs,
# and `scibench dump`. (Fuzzing of the decoder lives in `fuzzcheck`.)
journalcheck:
	$(GO) test -run 'TestJournal|TestOpenJournalKeepsExistingFormat|TestRunResumeBitIdenticalAcrossFormats' \
		-count=1 ./internal/campaign
	$(GO) test -run 'TestMergeByteIdenticalAcrossJournalFormats' -count=1 ./internal/shard
	$(GO) test -run 'TestBinaryTrace|TestTracerBinarySink' -count=1 ./internal/telemetry
	$(GO) test -run 'TestCampaignV2SIGKILLResumeByteIdentity|TestShardedCampaignV2ByteIdentity|TestDumpJournalAndTrace' \
		-count=1 ./cmd/scibench

# shardcheck drives the distributed-execution stack with real executor
# processes: one SIGKILLed mid-shard (resume from journal on
# reassignment), in-process executors with one crashed attempt, the
# supervisor's stall and loss accounting (a wedged executor process
# fenced as stalled by its launcher, and reassigned), a remote worker's
# progress count freezing while its measure wedges, the hand-run
# `scibench shard`/`exec`/`merge` workflow with a SIGKILLed executor,
# and the CLI sharded campaign (in-process loopback workers) SIGKILLed
# and rerun — every merged report byte-identical to its single-process
# reference. The coordinator's lease timer itself runs in remotecheck.
shardcheck:
	$(GO) test -run 'TestProcess|TestSupervise|TestHeartbeatStopsWhenMeasureWedges' -count=1 ./internal/shard
	$(GO) test -run 'TestShardedCampaignSIGKILLByteIdentity|TestShardedCampaignKillRerunByteIdentity' -count=1 ./cmd/scibench

# remotecheck drives the cross-machine transport: two loopback workers
# under injected loss/delay/duplication, a mid-shard partition and a
# measure wedged inside a live worker, each forcing a fenced
# reassignment with resume-from-shipped-journal, the lease timer that
# only an advancing progress count re-arms, and the CLI worker-loss
# campaign — every merged report byte-identical to its single-process
# reference. It also pins the mirror as the one journal lineage: a
# worker's divergent local journal is replaced, never spliced onto the
# mirror; the coordinator cuts a torn mirror tail durably when it seeds
# the next attempt; a worker keeps only local bytes that extend the
# seed; and a frame whose lease was fenced after its check is refused.
remotecheck:
	$(GO) test -run 'TestLoopbackTwoWorkersFaultyByteIdentity|TestPartitionReassignmentByteIdentity|TestStallFencedAndReassignedByteIdentity|TestLeaseTimerResetsOnlyOnProgress|TestAllWorkersUnreachableDegrades|TestZombieFencing|TestDivergentLocalJournalNotSpliced|TestSeedingCutsTornMirrorTail|TestPrepareKeepsOnlyExtensions|TestChunkFencedAfterLeaseCheckRefused' -count=1 ./internal/remote
	$(GO) test -run 'TestRemoteCampaignWorkerLossByteIdentity' -count=1 ./cmd/scibench

# loadcheck drives the open-loop service workload's guarantees: arrival
# and simulation determinism, the service-draw order-independence the
# bit-identity contract rests on, the byte-identity golden over the
# serve.Run matrix, the per-epoch (not per-request) allocation count,
# the epoch's bytes following its peak queue depth rather than its
# request count, the request cap refused with an error rather than cut
# silently, the coordinated-omission golden test against its analytic
# M/D/1 value, and the sweep's worker-count byte-identity at both the
# library and CLI (merged.json) layers. It also pins the event core:
# serve's byte identity rests on desim firing events in (at, seq) order,
# checked against a container/heap reference, with hold steps that
# allocate nothing.
loadcheck:
	$(GO) test -run 'TestSchedule|TestRunDeterministic|TestServiceDrawIsPerRequest|TestServeGoldenBytes|TestRunAllocsIndependentOfRequests|TestRunBytesIndependentOfRequests|TestRunRefusesRequestCap|TestCoordinatedOmission|TestOmissionRatio' \
		-count=1 ./internal/serve
	$(GO) test -run 'TestRunServeWorkerInvariance|TestRunServeKneeDetection|TestQuantileCIHist' \
		-count=1 ./internal/suite ./internal/ci
	$(GO) test -run 'TestServeMergedJSONWorkerInvariance' -count=1 ./cmd/scibench
	$(GO) test -run 'TestEngineMatchesHeapReference|TestEngineStepsAllocateNothing' -count=1 ./internal/desim

# conformance runs the full seeded coverage grid of ci.RatioCI (more
# distributions and sizes, 4000 trials a cell, a Bonferroni floor);
# the plain suite runs a short grid of the same test.
conformance:
	$(GO) test -run 'TestRatioCIConformance' -count=1 -v ./internal/ci -args -conformance

# Every fuzz target in the repo with its package, one per line:
# "<package-dir> <FuzzTarget>". CI's fuzz matrix and the local fuzzcheck
# loop both consume this list, so a new target added here is fuzzed
# everywhere without touching the workflow.
FUZZ_TARGETS = \
	./internal/campaign FuzzReplay \
	./internal/campaign FuzzJournalV2 \
	./internal/campaign FuzzManifest \
	./internal/campaign FuzzReplayTruncation \
	./internal/shard FuzzLoadSweep \
	./internal/shard FuzzLoadManifest \
	./internal/remote FuzzChunkFrame \
	./internal/remote FuzzRegister \
	./internal/remote FuzzValidChunkPath \
	./internal/regress FuzzParseReport \
	./internal/regress FuzzParseBench \
	./internal/desim FuzzEventOrder \
	./internal/serve FuzzArrivalSchedule \
	./internal/stats FuzzHistogramMerge

FUZZTIME ?= 10s

# fuzzcheck runs every fuzz target for FUZZTIME each — the local
# equivalent of CI's matrix fuzz job (which runs 30s per target with a
# persistent corpus cache).
fuzzcheck:
	@set -e; \
	set -- $(FUZZ_TARGETS); \
	while [ $$# -gt 0 ]; do \
		pkg=$$1; tgt=$$2; shift 2; \
		echo "fuzz $$tgt ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$tgt\$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# check is the CI gate: static analysis, the plain suite first (clean
# line numbers for pure-Go failures), then the race pass and the
# telemetry + durability + distributed-execution + load-generation
# drives.
check: vet test race telemetry-smoke durability journalcheck shardcheck remotecheck loadcheck

bench:
	$(GO) test -bench=. -benchmem ./...

# BENCH_PKGS is every package that actually defines a benchmark, so the
# smoke pass doesn't recompile and run empty test binaries for the rest.
BENCH_PKGS = $(shell grep -rl --include='*_test.go' 'func Benchmark' . | xargs -n1 dirname | sort -u)

# bench-smoke compiles and runs every benchmark once on one and on two
# procs: catches benchmarks that no longer build or crash, and runs each
# parallel path both serial and fanned out, without being a perf gate.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x -cpu 1,2 $(BENCH_PKGS)

# The harness benchmarks the committed baseline tracks (suite engine,
# bootstrap, analysis fast path, collective scaling at P=1k/64k/1M).
HARNESS_BENCH = BenchmarkSuiteRun|BenchmarkBootstrapCI|BenchmarkAnalyze|BenchmarkSampleReset|BenchmarkSummarize$$|BenchmarkMedianCI|BenchmarkCollective|BenchmarkJournal|BenchmarkServe|BenchmarkHistogramRecord
BENCH_COUNT ?= 5

# bench-json records the harness benchmarks as a schema v2 sample set
# (BENCH_COUNT runs per benchmark, raw per-run samples + Rule 9 env +
# provenance) — the committed baseline cmd/benchgate gates against.
bench-json:
	$(GO) run ./cmd/benchjson -count $(BENCH_COUNT) -bench '$(HARNESS_BENCH)' \
		-o BENCH_harness.json .
	@echo wrote BENCH_harness.json

# benchgate collects a fresh candidate sample set and gates it against
# the committed baseline with median CIs and rank tests (Rules 5-8
# applied to our own perf trajectory). ARGS passes extra benchgate
# flags, e.g. make benchgate ARGS=-advisory.
benchgate:
	$(GO) run ./cmd/benchjson -count $(BENCH_COUNT) -bench '$(HARNESS_BENCH)' \
		-o BENCH_candidate.json .
	$(GO) run ./cmd/benchgate -baseline BENCH_harness.json \
		-candidate BENCH_candidate.json $(ARGS)

# scalecheck is the million-rank smoke: the 2^20-rank summary-mode
# Allreduce must complete as a single sweep with allocations independent
# of P, summary quantiles at 2^16 ranks must match the exact per-rank
# ones within 1/64, and the batch/worker-invariance goldens must hold.
# No race detector — at this scale it would multiply memory and run time
# without adding coverage beyond the dedicated race pass in `check`.
scalecheck:
	$(GO) test -run 'TestMillionRankSummarySmoke|TestSummaryAllocsFlat|TestSummaryQuantilesMatchExact|TestCollectiveBatchWorkerInvariance' \
		-count=1 ./internal/cluster
	$(GO) test -run '^$$' -bench 'BenchmarkCollective.*/p=1048576' -benchtime 1x -benchmem .

# profile-cluster captures CPU + allocation profiles of the collective
# hot loop (million-rank Allreduce). Inspect with:
#   go tool pprof cluster.cpu.pprof
profile-cluster:
	$(GO) test -run '^$$' -bench 'BenchmarkCollectiveAllreduce/p=1048576' -benchtime 3x \
		-cpuprofile cluster.cpu.pprof -memprofile cluster.mem.pprof .
	@echo "wrote cluster.cpu.pprof and cluster.mem.pprof"

coverage:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# coverage-check fails when total coverage drops more than 2 points
# below the committed COVERAGE watermark (and prints a nudge to raise
# the watermark when coverage grew).
coverage-check: coverage
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	floor=$$(cat COVERAGE); \
	echo "coverage: $${total}% (watermark $${floor}%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t >= f - 2.0) }' || \
		{ echo "FAIL: coverage $${total}% is more than 2 points below watermark $${floor}%"; exit 1; }; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t > f + 0.5) }' && \
		echo "note: coverage rose above the watermark; consider updating COVERAGE to $${total}" || true

figures:
	$(GO) run ./cmd/figures all -quick
