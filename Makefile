# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench bench-check perf soak fuzz kill-resume daemon-chaos experiments tables examples cover clean ci docs-check

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

# Full suite under the race detector. CI runs this as its own blocking
# job; the replication/failover plane in particular crosses goroutines in
# the experiment watchdog, so keep this green before merging.
race:
	go test -race ./...

# Full benchmark pass (see docs/PERFORMANCE.md).
bench:
	go test -bench=. -benchmem ./...

# Regenerate the experiment headlines the benchmarks record and compare
# them against the committed baseline (deterministic exp.* series: ±20%;
# wall-clock perf.* series: directional, ±50%, see cmd/benchcheck). The
# underlying experiments are deterministic, so in practice any exp.* drift
# means the model changed; refresh the baseline intentionally with:
#   BENCH_JSON=bench_baseline.json go test -run '^$$' -bench '$(BENCH_SUBSET)' -benchtime 1x .
BENCH_SUBSET := BenchmarkEngine|BenchmarkTable1Apps|BenchmarkFig4Walk|BenchmarkTensionSweep|BenchmarkCacheHit|BenchmarkFig6ArrayWidth|BenchmarkSpanOverhead|BenchmarkPerfOverhead|BenchmarkDaemonJob|BenchmarkSwitchBuild|BenchmarkNetsimServiceRate|BenchmarkKVCacheProcess
bench-check:
	BENCH_JSON=/tmp/bench_current.json go test -run '^$$' -bench '$(BENCH_SUBSET)' -benchtime 1x .
	go run ./cmd/benchcheck -baseline bench_baseline.json -current /tmp/bench_current.json -tol 0.20 -perf-tol 0.5

# Measure the wall-clock performance plane on a representative run and
# leave the machine-readable document in perf.json (CI uploads it as an
# artifact). The stderr one-liner is the human digest; the baseline table
# in docs/PERFORMANCE.md is refreshed from this output.
PERF_JSON ?= perf.json
perf:
	go run ./cmd/adcpsim -exp saturation,failover,cachehit -perf-json $(PERF_JSON)
	@python3 -c 'import json; d = json.load(open("$(PERF_JSON)")); \
		m = {x["name"]: x["value"] for x in d["metrics"] if not x.get("labels")}; \
		print("events/s: %.3g  allocs/event: %.2f  peak heap: %.1f MiB" % ( \
		m["perf.run.events_per_s"], m["perf.run.allocs_per_event"], \
		m["perf.mem.heap_peak_bytes"]/2**20))'

# Chaos soak: random fault plans (loss, corruption, link-down windows,
# host crashes, switch stalls) against the network with recovery enabled;
# asserts ledger conservation and coflow completion for every seed. Seeds
# fan out across the parallel worker pool. Override the sweep width with
# SOAK_SEEDS=<n> and the pool width with PARALLEL=<n> (default: NumCPU).
SOAK_SEEDS ?= 200
PARALLEL ?=
soak:
	SOAK_SEEDS=$(SOAK_SEEDS) PARALLEL=$(PARALLEL) go test -run TestChaosSoak -v ./internal/netsim/

# Native fuzzing of every input that crosses a trust boundary: packet
# bytes (decoder, parse graph walker vs the reference parser, base
# header), HA snapshot bytes and random fault plans. Go fuzzes one target
# per invocation, so each runs in turn for FUZZTIME. A failing input is
# written under the package's testdata/fuzz/ and replays in `go test`.
FUZZTIME ?= 10s
FUZZ_TARGETS := \
	./internal/packet:FuzzDecoded \
	./internal/packet:FuzzParseGraph \
	./internal/packet:FuzzHeaderRoundTrip \
	./internal/ha:FuzzSnapshotDecode \
	./internal/faults:FuzzRandomPlan
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$pkg $$name ($(FUZZTIME))"; \
		go test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# Kill-resume chaos gate (blocking in CI): run a journaled sweep, SIGKILL
# it at a randomized (logged) delay, resume it, and demand stdout and
# -metrics byte-identical to an uninterrupted run — the crash-safety
# contract of docs/RESILIENCE.md exercised with a real SIGKILL. If the
# run happens to finish before the kill lands, the resume of a completed
# journal is checked instead (an equally valid identity).
KILL_EXPS ?= faults,failover,saturation
KILL_DIR ?= /tmp/kill-resume
kill-resume:
	go build -o $(KILL_DIR).bin ./cmd/adcpsim
	rm -rf $(KILL_DIR) && mkdir -p $(KILL_DIR)
	$(KILL_DIR).bin -exp $(KILL_EXPS) -parallel 8 -metrics $(KILL_DIR)/want.json > $(KILL_DIR)/want.out
	@delay_ms=$$(python3 -c "import random; print(random.randrange(20, 170))"); \
	echo "SIGKILL after $${delay_ms}ms"; \
	$(KILL_DIR).bin -exp $(KILL_EXPS) -parallel 8 -metrics $(KILL_DIR)/victim.json \
		-run-dir $(KILL_DIR)/run > $(KILL_DIR)/victim.out 2>/dev/null & pid=$$!; \
	python3 -c "import time; time.sleep($${delay_ms}/1000)"; \
	if kill -9 $$pid 2>/dev/null; then echo "killed pid $$pid"; \
	else echo "run finished before the kill; checking resume of the completed journal"; fi; \
	wait $$pid || true
	$(KILL_DIR).bin -exp $(KILL_EXPS) -parallel 8 -metrics $(KILL_DIR)/got.json \
		-run-dir $(KILL_DIR)/run -resume > $(KILL_DIR)/got.out
	diff $(KILL_DIR)/want.out $(KILL_DIR)/got.out
	diff $(KILL_DIR)/want.json $(KILL_DIR)/got.json
	@echo "kill-resume: output byte-identical after SIGKILL + resume"

# Daemon chaos gate (blocking in CI): start the job daemon, submit a
# mixed batch (good jobs around a poison job), SIGKILL the daemon at a
# randomized logged delay, restart it on the same directory, and demand
# the good jobs recover with results byte-identical to batch CLI runs,
# the poison job lands in quarantine without killing the service, and a
# final SIGTERM drains with exit 0. See cmd/daemonchaos and
# docs/SERVICE.md. Reproduce a failing run with CHAOS_SEED=<seed>.
CHAOS_DIR ?= /tmp/daemon-chaos
CHAOS_SEED ?= 0
daemon-chaos:
	go build -o $(CHAOS_DIR).bin ./cmd/adcpsim
	go run ./cmd/daemonchaos -bin $(CHAOS_DIR).bin -dir $(CHAOS_DIR) -seed $(CHAOS_SEED)

# Documentation lint: every internal package and command carries a godoc
# comment, every relative markdown link in README.md / docs/ resolves,
# and docs/METRICS.md matches a fresh `go run ./cmd/metricsdoc`.
docs-check:
	go run ./cmd/docscheck

# Every table and figure of the paper.
experiments:
	go run ./cmd/adcpsim -exp all

tables:
	go run ./cmd/tablegen

examples:
	go run ./examples/quickstart
	go run ./examples/paramserver
	go run ./examples/kvcache
	go run ./examples/dbanalytics
	go run ./examples/graphmining
	go run ./examples/groupcomm
	go run ./examples/scheduler

# What .github/workflows/ci.yml's main job runs: formatting, vet, build,
# tests, and a smoke run of the experiment CLI's metrics export. The race
# detector runs as a separate blocking CI job (`make race`).
ci:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	go build ./...
	go test ./...
	go run ./cmd/docscheck
	go run ./cmd/adcpsim -exp table1 -metrics /tmp/m.json > /dev/null
	@python3 -c 'import json; s = json.load(open("/tmp/m.json")); \
		assert s["schema"] == "adcp-metrics/1"; \
		assert any(m["name"].startswith("exp.table1.") for m in s["metrics"]); \
		print("metrics smoke ok:", len(s["metrics"]), "series")'

cover:
	go test -cover ./...

clean:
	go clean ./...
