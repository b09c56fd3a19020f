#!/usr/bin/env sh
# CI gate: build, vet, full test suite, then the race detector over the
# packages with concurrent paths (the parallel sweep workers, each
# owning its simulators; the page pool the stores share; the atomic
# metrics registry; the span tracer; the fault injector feeding the
# parallel sweep; the session server's shards), the clock-mode
# equivalence suites, the simulators-clocked-in-parallel and
# pooled-session equivalence tests and the span tests under -race, the
# multi-simulator free-list race test repeated, the zero-alloc smoke
# pinning the topo clock's allocation-free forwarding and the
# spans-disabled clock loop, and finally a 1-iteration benchmark smoke
# so every benchmark at least compiles and executes (~5s; it measures
# nothing).
set -eux

go build ./...
go vet ./...
go test ./...
go test -race ./internal/device ./internal/fault ./internal/mem ./internal/metrics ./internal/server ./internal/sim ./internal/span ./internal/topo ./internal/workload
go test -race -run 'TestClockModeEquivalence|TestEventClock|TestSpans|TestPaperGoldenSweep|TestParallelClock|TestSerialPooledWorkloadEquivalence' .
go test -race -count=10 -run 'TestSimulatorsOnOwnGoroutines|TestReleaseRspReturnsToOwnDevice' ./internal/sim
# Session-server gate: the 500-session loopback smoke (concurrent
# clients churning a full fleet over one connection) and the wire
# equivalence suite (bit-identical stats and response streams between
# wire-driven and in-process sessions, in all four wire modes — json,
# binary, and the batched variant of each).
go test -run 'TestSmoke500Sessions|TestWireEquivalence' -count=1 ./internal/server
# Batched-load race smoke: a small hmcd-load fleet driving binary
# batched frames through the full client/conn/shard pipeline under the
# race detector — the pipelined client reader, the per-connection mode
# switch, and batch execution on the shards all run concurrently here.
go run -race ./cmd/hmcd-load -sessions 200 -rounds 2 -warmup 1 -conns 4 -workers 8 -proto binary -batch > /dev/null
# Allocation-regression gate: every pin that asserts a hot path stays
# allocation-free (the pins skip themselves under -race, so this is a
# separate non-race invocation). TestClockLoopSpansOffZeroAlloc in the
# root package pins the disabled-tracer clock loop; TestEmitZeroAlloc
# in internal/span pins the recording path itself;
# TestSteadyStateAllocs pins the warm server round trip (clock and
# batched send/recv, both protocols) at single-digit allocs/op.
go test -run 'ZeroAlloc|TestSteadyStateAllocs' -count=1 . ./internal/metrics ./internal/span ./internal/server
go test -run '^$' -bench . -benchtime 1x ./...

# Speed-regression check: re-measure the key hot-path benchmarks and
# diff ns/op against the most recent BENCH_*.json. Growth beyond 10%
# prints a WARNING but does not fail the gate — CI hosts are noisy;
# scripts/bench.sh records the authoritative trajectory.
cd "$(dirname "$0")/.."
baseline="$(ls -1t BENCH_*.json 2>/dev/null | head -1 || true)"
if [ -n "$baseline" ]; then
    go test -run '^$' \
        -bench 'BenchmarkClockLoopCMC$|BenchmarkClockLoop$|BenchmarkCRC|BenchmarkMutexSweepSerial|BenchmarkTopoChainClockSerial' \
        -benchtime 1s . |
    awk -v basefile="$baseline" '
      BEGIN {
        while ((getline line < basefile) > 0) {
          if (match(line, /"name": "[^"]+"/)) {
            name = substr(line, RSTART + 9, RLENGTH - 10)
            if (match(line, /"ns_per_op": [0-9.]+/))
              base[name] = substr(line, RSTART + 13, RLENGTH - 13) + 0
          }
        }
      }
      /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        for (i = 2; i <= NF; i++) if ($(i+1) == "ns/op") ns = $i + 0
        if (!(name in base) || base[name] <= 0) next
        growth = (ns - base[name]) / base[name] * 100
        tag = (growth > 10) ? "  <-- WARNING: >10% ns/op growth" : ""
        printf "  %-32s %12.1f -> %-12.1f %+6.1f%%%s\n", name, base[name], ns, growth, tag
      }'
else
    echo "no BENCH_*.json baseline; skipping speed-regression check"
fi
