// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload from a seed, checks the program's
// outputs, and prints one JSON result as its last line of standard output:
//
//	perfbench --workload sim-grid --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, taken from spans recorded around calls into
// each layer's public functions (see README.md). A failed check prints the
// result with "correct": false and exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef is one metric the benchmark reports.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics. Every workload reports every one of
// them; README.md gives each metric's source per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_req_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"cpu_us_per_req", "us"},
	{"pard_good_pct", "%"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
}

// perLayer lists the per-layer metrics of the traced run. A workload that
// does not exercise a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"traced.sim_req_per_s", "1/s"},
	{"traced.p99_ms", "ms"},
	{"failed_pct", "%"},
	{"sweep.busy_pct", "%"},
	{"sweep.run_ms_p50", "ms"},
	{"sweep.run_ms_max", "ms"},
	{"trace.generate_ms", "ms"},
	{"simgpu.events", "count"},
	{"simgpu.ns_per_event", "ns"},
	{"metrics.finalize_ms", "ms"},
	{"sched.inject_ms", "ms"},
	{"sched.sync_ticks", "count"},
	{"sched.sync_ms", "ms"},
	{"sched.scale_ms", "ms"},
	{"sched.lane_ms", "ms"},
	{"sched.lane_events", "count"},
	{"sched.control_events", "count"},
	{"policy.wasted_gpu_pct", "%"},
	{"policy.drop_pct", "%"},
	{"policy.source_drop_share_pct", "%"},
	{"dist.frames", "count"},
	{"dist.bytes_mb", "MB"},
	{"dist.read_wait_ms", "ms"},
	{"dist.write_ms", "ms"},
	{"dist.handshake_ms", "ms"},
	{"sched.exchanges.step", "count"},
	{"sched.exchanges.barrier", "count"},
	{"sched.exchanges.board", "count"},
	{"sched.exchanges.scale", "count"},
	{"sched.exchanges.finish", "count"},
	{"sched.exchange_wait_ms", "ms"},
	{"server.callbacks", "count"},
	{"server.core_busy_ms", "ms"},
	{"server.timer_lag_ms_p50", "ms"},
	{"server.timer_lag_ms_p99", "ms"},
	{"server.latency_ms_p50", "ms"},
	{"server.latency_ms_p99", "ms"},
	{"http.overhead_ms_p50", "ms"},
	{"http.overhead_ms_p99", "ms"},
	{"server.overload_goodput_rps", "1/s"},
	{"server.gated_goodput_rps", "1/s"},
	{"server.nominal.drop_pct", "%"},
	{"server.nominal.stalled", "count"},
	{"server.nominal.reject_pct", "%"},
	{"server.nominal.sim_delta_pct", "%"},
	{"server.overload.drop_pct", "%"},
	{"server.overload.stalled", "count"},
	{"server.overload.reject_pct", "%"},
	{"server.overload.sim_delta_pct", "%"},
	{"server.gated.drop_pct", "%"},
	{"server.gated.stalled", "count"},
	{"server.gated.reject_pct", "%"},
	{"server.gated.sim_delta_pct", "%"},
	{"load.dispatch_late_ms_p99", "ms"},
	{"load.dispatch_late_ms_max", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_pct", "%"},
}

// runOpts is what every workload receives from the command line.
type runOpts struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil on untraced runs
}

// report is what a workload hands back: its operation counts, the checks
// that failed, and the metrics it measured, by name.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runOpts) (*report, error){
	"sim-grid":  runSimGrid,
	"sim-2host": runSim2Host,
	"live-http": runLiveHTTP,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: sim-grid, sim-2host or live-http")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	traced := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sim-grid|sim-2host|live-http, --seconds >= 1 and --trace 0|1")
		return 2
	}
	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *traced == 1 {
		opts.tr = newTracer()
	}
	rt := startRuntimeStats()
	rep, err := fn(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	rt.finish(rep.metrics)
	if rep.attempted > 0 {
		rep.metrics["failed_pct"] = 100 * float64(rep.failed) / float64(rep.attempted)
	}
	if opts.tr != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := opts.tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", opts.tr.len(), path)
	}
	defs := endToEnd
	if opts.tr != nil {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		out.Metrics[d.name] = value{rep.metrics[d.name], d.unit}
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// workers is the load the benchmark puts on the machine: sweep workers and
// client connections are both sized by the CPU count.
func workers() int { return runtime.NumCPU() }
