// Command perfbench is the end-to-end benchmark of the SUPG service. It
// runs internal/server in-process behind a loopback listener, sends one
// seeded workload through a closed loop of two client connections
// (each sends its next request only after the previous reply), checks
// every response against the benchmark's own ground truth, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"},
// holding the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced run.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload oracle-bound --seed 1 --seconds 10 --trace 0
//
// Workloads are oracle-bound, warm-scan and append-mixed (see
// workloads.go). Scratch files go under .bench_build/ in the working
// directory and are removed on exit; traced runs keep their spans in
// .bench_build/traces/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// endToEnd and perLayer name the metrics of the final JSON line, in
// the order BENCHMARK.json lists them.
var (
	endToEnd = []string{"setup_s", "qps", "latency_p50_ms", "latency_p95_ms",
		"oracle_calls_per_query", "response_bytes_per_query", "alloc_bytes_per_query", "target_met_share"}
	perLayer = []string{"server.overhead_ms", "query.parse_plan_us", "engine.elapsed_ms",
		"index.build_s", "index.count_us", "index.gather_ms", "index.append_ms", "index.segments",
		"index.proxy_calls_per_query", "core.select_ms",
		"oracle.busy_ms_per_query", "oracle.concurrency", "oracle.batches_per_query", "oracle.retries_per_query",
		"labelstore.hit_rate", "labelstore.evictions", "labelstore.wal_records_per_query",
		"storage.segments_persisted", "storage.recovery_ms", "metrics.evaluate_ms", "dataset.upload_s",
		"trace.overhead_ms", "append_p50_ms", "oracle_invocations_per_query", "failed_share"}
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: oracle-bound, warm-scan or append-mixed")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "seconds of timed traffic")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads(false)[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (oracle-bound|warm-scan|append-mixed), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	procs := 2
	if runtime.NumCPU() < procs {
		procs = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(procs)

	scratch := filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: scratch}
	out, err := run(cfg)
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.trace {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.Name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = out.tracer.write(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			os.Exit(1)
		}
		out.notes = append(out.notes, fmt.Sprintf("trace_file %s (%d spans)", path, len(out.tracer.spans)))
	}

	fmt.Printf("workload %s seed %d seconds %d trace %d gomaxprocs %d clients %d (closed loop)\n",
		w.Name, *seed, *seconds, *trace, procs, clients)
	fmt.Printf("server_options %s\n", w.optionsRecord())
	for _, n := range out.notes {
		fmt.Println(n)
	}
	// Untraced runs also print the end-to-end metrics that BENCHMARK.json
	// declares with the per-layer ones because they carry no bound: two
	// are zero on some workloads, and append latency on the workloads
	// without persistence spreads too widely between runs to gate.
	names := append(append([]string(nil), endToEnd...), "append_p50_ms", "oracle_invocations_per_query", "failed_share")
	if cfg.trace {
		names = perLayer
	}
	final := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := out.metrics[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", n)
			os.Exit(1)
		}
		fmt.Printf("metric %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	declared := endToEnd
	if cfg.trace {
		declared = perLayer
	}
	for _, n := range declared {
		final[n] = out.metrics[n]
	}
	for _, f := range out.failures {
		fmt.Println("check_failed", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.failures) == 0, out.attempted, out.failed, final})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(out.failures) > 0 {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median and percentile use the nearest-rank rule on a copy of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(p*float64(len(s))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func inUnits(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
