GO ?= go

# CI_SEED de-correlates benchmark flakes across CI runs (the workflow sets
# it from the run number); locally it defaults to 0 = the canonical seeds.
CI_SEED ?= 0

# FUZZTIME is the budget for the primary fuzz targets — the port-window
# protocol under three goroutines and the view/resize race; FUZZTIME_SHORT
# for the model-based targets that mostly re-verify their corpora.
FUZZTIME ?= 60s
FUZZTIME_SHORT ?= 15s

.PHONY: build test check loc bench bench-smoke bench-hotpath ci ci-vet ci-fmt ci-lint ci-test ci-race ci-fuzz ci-smoke ci-gateway ci-view ci-obs ci-sched ci-graph ci-flake ci-nightly-bars

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the fast pre-commit gate: vet everything, race-test the
# packages with the trickiest concurrency (resilience supervisor, oar
# bridge healing, ring buffer, batched port path, sharded
# trace bus, monitor, histogram counters, the actor's atomics), then smoke
# the batch ablation so a batching regression fails loudly.
check:
	$(GO) vet ./...
	$(GO) test -race ./internal/resilience/... ./internal/oar/... ./internal/ringbuffer/... ./internal/trace/... ./internal/monitor/... ./internal/stats/... ./internal/core/... ./internal/gateway/... ./raft/...
	$(MAKE) bench-smoke

# bench-smoke runs the batch ablation on a small corpus/stream — seconds,
# not minutes — verifying the bulk path end to end (byte-identical results
# and the batched >= 2x acceptance check are asserted inside the ablation),
# then the hot-path checks below.
bench-smoke:
	$(GO) run ./cmd/raft-bench -ablate batch -corpus 1 -items 500000
	$(MAKE) bench-hotpath

# bench-hotpath prints the per-element costs every stream pays — one actor
# step, one port push+pop and a lambda kernel's port lookup by name, all of
# which must stay allocation-free — the construction cost of a many-kernel execution (Exe of 10k empty
# gen -> sink pairs) and the items/s of a remote stage on loopback (int64 and
# []byte elements; both printed, not gated), then checks the end-to-end
# benchmark itself: its unit tests, and a
# 1/50-scale pass over all six workloads that verifies every oracle and
# that the emitted metric names equal BENCHMARK.json. The benchmark refuses
# to run on one processor (producer and consumer cannot overlap), so that
# step is skipped there.
bench-hotpath:
	$(GO) test -run '^$$' -bench '^BenchmarkStepTimedNoop$$' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench '^BenchmarkPortPushPop1G$$' -benchmem ./raft/
	$(GO) test -run '^$$' -bench '^BenchmarkKernelPortLookup$$' -benchmem ./raft/
	$(GO) test -run '^$$' -bench '^BenchmarkExeManyPairs$$' -benchmem -benchtime 5x ./raft/
	$(GO) test -run '^$$' -bench '^BenchmarkRemoteStage$$' ./internal/oar/
	$(GO) test ./bench/
	@if [ "$$(nproc)" -ge 2 ]; then \
		echo "$(GO) run ./bench -smoke"; $(GO) run ./bench -smoke; \
	else echo "bench-hotpath: one processor — skipping go run ./bench -smoke"; fi

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# loc prints the size numbers the ROADMAP's simplicity aim tracks:
# non-test Go lines outside bench/, the public With*/As* options of the
# importable packages (raft, kernels), every exported func there that
# returns an Option or a LinkOption (which adds From, To, Cap, MaxCap and
# AllowConvert), and the line count of each package's surface golden (one
# line per exported declaration, pinned by TestSurface). Informational: it
# never fails.
loc:
	@echo "non-test Go lines outside bench/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' -exec cat {} + | wc -l)"
	@echo "public With*/As* options: $$(cat $$(ls raft/*.go kernels/*.go | grep -v '_test\.go$$') | grep -cE '^func (With|As)')"
	@echo "exported funcs returning Option/LinkOption: $$(cat $$(ls raft/*.go kernels/*.go | grep -v '_test\.go$$') | grep -cE '^func [A-Z][A-Za-z0-9_]*(\[[^]]*\])?\(.*\) (Option|LinkOption) \{')"
	@echo "surface golden lines: raft $$(wc -l < raft/testdata/surface.golden), kernels $$(wc -l < kernels/testdata/surface.golden)"

# ci runs exactly what .github/workflows/ci.yml runs, as one local command.
# The workflow jobs invoke the ci-* sub-targets below so the two can never
# drift: editing a step here edits it for CI too.
ci: loc ci-vet ci-fmt ci-lint ci-test ci-race ci-fuzz ci-smoke ci-gateway ci-view ci-obs ci-sched ci-graph

# Vet for arm64 and 386 as well, and run the stats and core tests on 386,
# so that owned.Counter's non-amd64 store and its 8-byte alignment on a
# 32-bit target are built and run, not assumed. internal/ringbuffer stays
# out of the 386 run: TestTelemetryLayout pins the ring's cache-line
# offsets as they fall on a 64-bit target.
ci-vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/stats ./internal/core

# Static analysis and vulnerability scan. The tools are optional locally
# (skipped with a notice when not installed, so `make ci` works on a bare
# toolchain); the workflow's lint job installs both, so the gate is always
# enforced in CI. Install locally with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
#   go install golang.org/x/vuln/cmd/govulncheck@latest
ci-lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else echo "ci-lint: staticcheck not installed — skipping locally (enforced in CI)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else echo "ci-lint: govulncheck not installed — skipping locally (enforced in CI)"; fi

# gofmt -l prints nothing when the tree is clean; any output fails the gate.
ci-fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

ci-test:
	$(GO) test ./...

# Same package list as `check`: the packages with real concurrency (core's
# timing tests skip themselves under -race; its gate, lifecycle and the
# words other goroutines read off a running actor do not). The
# ringbuffer and scheduler packages run three times — the lock-free commit,
# the resize handover and the park/wake Dekker pair are interleaving-
# dependent, and repeated runs shake out schedules a single pass misses.
# Width steps under both schedulers run twenty times: a replica adapter
# that held a work-stealing worker hung them there. So does the chain whose
# every park must be woken by a ring hook: a watchdog rescue there is a
# lost (or grace-late) wake. The gateway tests run twenty times too: the
# serving goroutines produce into a Source's stream themselves, taking
# turns under its mutex, and the race detector checks that lock.
ci-race:
	$(GO) test -race ./internal/resilience/... ./internal/oar/... ./internal/trace/... ./internal/monitor/... ./internal/stats/... ./internal/core/... ./raft/...
	$(GO) test -race -count=3 ./internal/ringbuffer/... ./internal/scheduler/...
	$(GO) test -race -count=20 -run TestScaleStepsAreCommits ./raft/
	$(GO) test -race -count=20 -run TestWorkStealEveryParkIsWoken ./internal/scheduler/
	$(GO) test -race -count=20 -run 'TestGateway|TestIdleGateway' ./raft/

# Short-budget coverage-guided fuzzing of the ring: the port-window
# protocol under three goroutines (lock-free commits, parks and wakes, the
# resize handover) and the view/resize race get the full budget, the
# model-based targets (the port window's among them), the bridge's binary
# frame reader and the string matchers against the naive scanner a shorter
# one. Each -fuzz run must name exactly one target. The matchers' inputs
# run to kilobytes (Horspool interleaves its cursors from 4 KiB), and
# minimizing one new input for the default 60 s would take the whole
# budget, so their minimization is capped at 2 s.
ci-fuzz:
	$(GO) test ./raft/ -run='^$$' -fuzz='^FuzzPortWindowConcurrent$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/ringbuffer/ -run='^$$' -fuzz='^FuzzViewResize$$' -fuzztime=$(FUZZTIME)
	@for t in FuzzViewModelResize FuzzRingAgainstModel FuzzRingBulkAgainstModel FuzzRingBulkConcurrentResize; do \
		echo "$(GO) test ./internal/ringbuffer/ -run='^$$' -fuzz=^$$t\$$ -fuzztime=$(FUZZTIME_SHORT)"; \
		$(GO) test ./internal/ringbuffer/ -run='^$$' -fuzz="^$$t\$$" -fuzztime=$(FUZZTIME_SHORT) || exit 1; \
	done
	$(GO) test ./internal/scheduler/ -run='^$$' -fuzz='^FuzzStealDeque$$' -fuzztime=$(FUZZTIME_SHORT)
	$(GO) test ./raft/ -run='^$$' -fuzz='^FuzzGraphRewrite$$' -fuzztime=$(FUZZTIME_SHORT)
	$(GO) test ./raft/ -run='^$$' -fuzz='^FuzzGroupRewrite$$' -fuzztime=$(FUZZTIME_SHORT)
	$(GO) test ./raft/ -run='^$$' -fuzz='^FuzzPortWindow$$' -fuzztime=$(FUZZTIME_SHORT)
	$(GO) test ./internal/oar/ -run='^$$' -fuzz='^FuzzBridgeFrame$$' -fuzztime=$(FUZZTIME_SHORT)
	$(GO) test ./internal/search/ -run='^$$' -fuzz='^FuzzMatchersAgree$$' -fuzztime=$(FUZZTIME_SHORT) -fuzzminimizetime=2s
	$(GO) test ./internal/search/ -run='^$$' -fuzz='^FuzzCountChunked$$' -fuzztime=$(FUZZTIME_SHORT) -fuzzminimizetime=2s

# Bench smoke for CI: correctness is always asserted; perf bars downgrade
# to warnings on small runners (auto-detected via GOMAXPROCS < 2). -seed
# varies per run so a conclusion that only holds for one seed gets caught.
ci-smoke:
	$(GO) run ./cmd/raft-bench -ablate batch -corpus 1 -items 500000 -seed $(CI_SEED)
	$(GO) run ./cmd/raft-bench -ablate rate -items 2000000 -seed $(CI_SEED)
	$(MAKE) bench-hotpath

# Gateway gate: race-test the admission front door (token buckets, the
# source-kernel handoff, the HTTP server are all concurrent by
# construction), then run the A14 ablation as a seeded smoke — the
# shed-before-saturation and best-effort bars assert on every run, and
# the isolation bar enforces on multi-core hosts.
ci-gateway:
	$(GO) test -race ./internal/gateway/...
	$(GO) test -race -run 'Gateway' ./raft/
	$(GO) run ./cmd/raft-bench -ablate gateway -seed $(CI_SEED)

# View gate: the borrow/release protocol and the resize handover are
# interleaving-dependent, so the ringbuffer package gets three racing passes,
# and so do the port windows that carry the scalar path over it — the
# retire rules, the counters under windows and the seeds of both
# FuzzPortWindow targets (the 'Window|CountsExact' line);
# then the A15 ablation runs as a seeded smoke — its chaos exactness and
# gateway copies-saved bars assert on every run.
ci-view:
	$(GO) test -race -count=3 ./internal/ringbuffer/...
	$(GO) test -race -run 'View|Batch|Pooled|Alloc' ./internal/oar/ ./internal/monitor/ ./kernels/ ./raft/
	$(GO) test -race -count=3 -run 'Window|CountsExact' ./internal/core/ ./internal/monitor/ ./internal/resilience/ ./raft/
	$(GO) run ./cmd/raft-bench -ablate view -seed $(CI_SEED)

# Observability gate: race-test the latency-marker path end to end —
# the marker lane/domain and timeline in internal/trace, the raft-level
# marker/healthz integration tests, and the bridge sidecar — with three
# passes, since marker handoff between ports, lanes and carriers is
# interleaving-dependent; then run the A16 ablation as a seeded smoke.
# Marker exactness, attribution, the flight dump and the bridge-sidecar
# checks assert on every run; the 3% overhead bar warns on small runners
# and is enforced by the nightly perf-bars job.
ci-obs:
	$(GO) test -race -count=3 ./internal/trace/...
	$(GO) test -race -count=3 -run 'Marker|Latency|Flight|Healthz|Timeline' ./raft/ ./internal/oar/
	$(GO) run ./cmd/raft-bench -ablate latency -items 500000 -seed $(CI_SEED)

# Scheduler gate: race-test the work-stealing scheduler and the actor
# core with three passes — deque steals, park/wake hook delivery and the
# watchdog are all interleaving-dependent — and the deadlock watch's
# freeze scan, whose parked-actor mark the work-stealing scheduler writes,
# under both schedulers; then run the A17 scale
# ablation as a seeded smoke. Element exactness and park/wake counter
# visibility assert on every run; the 1.05x scale-ratio bars warn on
# small runners and are enforced by the nightly perf-bars job.
ci-sched:
	$(GO) test -race -count=3 ./internal/scheduler/... ./internal/core/...
	$(GO) test -race -count=3 -run 'Deadlock' ./raft/ ./internal/monitor/
	$(GO) run ./cmd/raft-bench -ablate sched -corpus 4 -seed $(CI_SEED)

# Graph-rewrite gate: race-test the rewrite transaction protocol, the
# replicated groups whose width steps are rewrite commits, and the
# subgraph-template lifecycle with three passes — gate-pause sequencing,
# drain/retire ordering and template reap/restore are all interleaving-
# dependent — plus the chaos mid-run-splice integration test, then run
# the A18 ablation as a seeded smoke. Element exactness across epochs
# asserts on every run; the splice-pause and untouched-throughput bars
# warn on small runners and are enforced by the nightly perf-bars job.
ci-graph:
	$(GO) test -race -count=3 -run 'Exe|Validate|Rewrite|Template|Replic|Scale' ./raft/
	$(GO) test -race -run 'ChaosTextsearchExactAcrossMidRunSplice' .
	$(GO) run ./cmd/raft-bench -ablate graph -items 500000 -seed $(CI_SEED)

# Flake gate (ROADMAP aim 3), run nightly: the whole suite twenty times at
# GOMAXPROCS 1, 2 and 4; a single failure fails it.
ci-flake:
	@for p in 1 2 4; do \
		echo "GOMAXPROCS=$$p $(GO) test -count=20 -timeout=60m ./..."; \
		GOMAXPROCS=$$p $(GO) test -count=20 -timeout=60m ./... || exit 1; \
	done

# The nightly perf gate: the A5 (monitoring overhead), A11 (batching
# speedup), A12 (telemetry overhead), A13 (controller parity/latency/
# overhead), A14 (gateway admission/isolation), A15 (zero-copy view
# exactness), A16 (latency-marker overhead), A17 (work-stealing scheduler
# scale) and A18 (graph-rewrite pause/isolation) bars, *enforced* —
# -enforce-bars refuses the small-runner downgrade, so a missed bar
# fails the job. Runs only on the pinned multi-core runner (see the
# perf-bars job in .github/workflows/ci.yml); PR-time bench-smoke stays
# advisory.
ci-nightly-bars:
	$(GO) run ./cmd/raft-bench -ablate monitor,batch,obs,rate,gateway,view,latency,sched,graph -corpus 16 -seed $(CI_SEED) -enforce-bars
