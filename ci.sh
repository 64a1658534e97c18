#!/bin/sh
# ci.sh — the repository's check sequence (ROADMAP tier-1 plus static
# analysis and the race detector).
#
#   ./ci.sh         # vet + race-detector (short mode) + full test suite
#   ./ci.sh quick   # vet + race-detector (short mode) only
#
# The race run uses -short: the slow experiment sweeps (fig10-scale grids,
# cross-mechanism matrices) guard themselves with testing.Short() so the
# race detector exercises the job engine, the simulator core and all unit
# tests without the ~10x race-mode slowdown on multi-minute simulations.
# The full (non-short, no-race) suite then covers those sweeps at native
# speed.
set -eu
cd "$(dirname "$0")"

echo "== go vet ./..."
go vet ./...

echo "== go vet -C bench ./... (the benchmark module compiles against the APIs it imports)"
go vet -C bench ./...

echo "== gofmt -l . (the tree must be gofmt-clean)"
test -z "$(gofmt -l .)"

echo "== go build ./..."
go build ./...

echo "== go test -race -short ./..."
go test -race -short ./...

echo "== go test -run Fuzz ./internal/core/ (fuzz seed corpus)"
go test -run Fuzz ./internal/core/

echo "== go test -run Fuzz ./internal/dram/ (row-run Access vs the per-line reference)"
go test -run Fuzz ./internal/dram/

echo "== go test -run Fuzz ./internal/fault/ (fault plan -> String -> ParsePlan round trip)"
go test -run Fuzz ./internal/fault/

echo "== go test -run Fuzz ./internal/ingest/ (trace decoder fuzz seed corpus)"
go test -run Fuzz ./internal/ingest/

echo "== go test -run Fuzz ./internal/mem/ (DRAM address decoder vs the division reference)"
go test -run Fuzz ./internal/mem/

echo "== go test -run Fuzz ./internal/spec/ (spec JSON -> Normalized -> system -> workload fuzz seed corpus)"
go test -run Fuzz ./internal/spec/

echo "== op-stream handoff and output digests under the race detector"
GOMAXPROCS=4 go test -race -run 'ChunkedStream|BodiesNeverOverlap|MismatchedRendezvous' ./internal/cores/
GOMAXPROCS=4 go test -race -run 'ReportDigests|ShardedReportByteIdentity|ParallelModelByteIdentity' ./internal/spec/

if [ "${1:-}" != "quick" ]; then
	echo "== go test ./..."
	go test ./...

	echo "== dlbench fault smoke (lossy run whose pairs lose link 0-1 must complete)"
	go run ./cmd/dlbench -exp table1 -q -fault 'ber=1e-7,down=0-1@10us' >/dev/null

	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	go build -o "$tmp/dlsim" ./cmd/dlsim

	echo "== dlsim fault smoke (the severed chain must send packets over the host fallback)"
	"$tmp/dlsim" -workload p2p -fault 'ber=1e-7,down=0-1@10us' >"$tmp/fault.txt"
	grep -Eq '^fault\.fallback\.packets +[1-9]' "$tmp/fault.txt"
	echo "== dlsim fault byte conservation (link.bytes + fault.fallback.bytes == the healthy link.bytes)"
	got=$(awk '$1 == "link.bytes" || $1 == "fault.fallback.bytes" { s += $2 } END { print s + 0 }' "$tmp/fault.txt")
	want=$(awk '$1 == "link.bytes" { print $2 }' testdata/golden_dlsim_p2p.txt)
	test -n "$want" && test "$got" -eq "$want"

	echo "== dlsim trace smoke (tracing must not change stdout)"
	"$tmp/dlsim" -workload p2p -metrics -sample 10000 >"$tmp/plain.txt"
	"$tmp/dlsim" -workload p2p -metrics -sample 10000 -trace "$tmp/trace.jsonl" \
		>"$tmp/traced.txt" 2>/dev/null
	cmp "$tmp/plain.txt" "$tmp/traced.txt"
	test -s "$tmp/trace.jsonl"

	echo "== dlsim golden output (perf work must keep stdout byte-identical)"
	"$tmp/dlsim" -workload p2p >"$tmp/golden_check.txt"
	cmp testdata/golden_dlsim_p2p.txt "$tmp/golden_check.txt"

	echo "== dlsim link bandwidth bound (-linkbw NaN must exit non-zero, naming linkbw)"
	if timeout 20 "$tmp/dlsim" -workload p2p -linkbw NaN >/dev/null 2>"$tmp/linkbw.err"; then
		echo "dlsim accepted -linkbw NaN" >&2
		exit 1
	fi
	grep -q linkbw "$tmp/linkbw.err"

	echo "== dlsim fault plan bound (a link slowed below 1% must exit 1 at once, naming the clause)"
	status=0
	timeout 20 "$tmp/dlsim" -workload p2p -fault 'degrade=0-1@0*1e-9' >/dev/null 2>"$tmp/fault_bound.err" || status=$?
	test "$status" -eq 1
	grep -q 'degrade=0-1' "$tmp/fault_bound.err"

	echo "== dlsim metrics golden (histograms, per-link utilization, sampled series)"
	"$tmp/dlsim" -workload bfs -scale 12 -metrics -sample 10000 >"$tmp/golden_metrics.txt"
	cmp testdata/golden_dlsim_bfs_metrics.txt "$tmp/golden_metrics.txt"

	echo "== dlbench allreduce smoke (collective layer: all mechanisms + DL topologies)"
	go run ./cmd/dlbench -exp allreduce -q >/dev/null

	echo "== dlsim collective golden (train/AllReduce run must keep stdout byte-identical)"
	"$tmp/dlsim" -workload train -scale 12 -iters 2 >"$tmp/golden_train.txt"
	cmp testdata/golden_dlsim_train.txt "$tmp/golden_train.txt"

	echo "== external trace golden (dlsim -tracein + traffic matrix)"
	"$tmp/dlsim" -tracein testdata/external.trace -traffic "$tmp/traffic_external.csv" \
		>"$tmp/golden_tracein.txt"
	cmp testdata/golden_dlsim_tracein.txt "$tmp/golden_tracein.txt"
	cmp testdata/golden_traffic_external.csv "$tmp/traffic_external.csv"

	echo "== tracegen round trip (text and binary encodings replay identically)"
	go build -o "$tmp/tracegen" ./cmd/tracegen
	"$tmp/tracegen" -workload bfs -scale 10 -out "$tmp/rec.trace" 2>/dev/null
	"$tmp/tracegen" -workload bfs -scale 10 -format binary -out "$tmp/rec.btrace" 2>/dev/null
	"$tmp/dlsim" -tracein "$tmp/rec.trace" >"$tmp/rec_text.txt"
	"$tmp/dlsim" -tracein "$tmp/rec.btrace" >"$tmp/rec_bin.txt"
	cmp "$tmp/rec_text.txt" "$tmp/rec_bin.txt"

	echo "== bfs traffic-matrix golden (Table IV workload src x dst heatmap)"
	"$tmp/dlsim" -workload bfs -scale 12 -traffic "$tmp/traffic_bfs.csv" >/dev/null
	cmp testdata/golden_traffic_bfs.csv "$tmp/traffic_bfs.csv"

	echo "== go test -C bench . (all four benchmark workloads at --quick size against their goldens)"
	go test -C bench .

	echo "== histogram benchmark smoke"
	go test -bench BenchmarkHistogram -benchtime 100x -run '^$' ./internal/metrics/ >/dev/null

	echo "== event kernel benchmark smoke (host polling ticks and short-hop actors)"
	go test -bench BenchmarkEngineTickerAndActors -benchtime 100x -run '^$' ./internal/sim/ >/dev/null

	echo "== go test -race ./internal/serve/... (server, store, client and cluster dispatcher under the race detector)"
	go test -race ./internal/serve/...

	echo "== dlserve end-to-end smoke (HTTP result == CLI stdout, cache hit, trace upload, graceful drain)"
	go build -o "$tmp/dlserve" ./cmd/dlserve
	go build -o "$tmp/dlsmoke" ./cmd/dlsmoke
	"$tmp/dlsmoke" -serve "$tmp/dlserve" -sim "$tmp/dlsim" -tracein testdata/external.trace >/dev/null

	echo "== dlserve cluster chaos smoke (3 nodes, SIGKILL mid-job, requeue + byte-identity)"
	"$tmp/dlsmoke" -serve "$tmp/dlserve" -sim "$tmp/dlsim" -cluster 3 -chaos >/dev/null
fi

echo "ci: OK"
