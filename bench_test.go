// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each BenchmarkFigXX runs the corresponding experiment (at smoke scale so
// `go test -bench=.` stays tractable; use cmd/pard-bench -scale full for
// paper-length traces) and reports the artifact's headline scalar as a
// custom metric. Run with -v to see the rendered tables.
package pard_test

import (
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pard"
	"pard/internal/core"
	"pard/internal/depq"
	"pard/internal/dist"
	"pard/internal/pipeline"
	"pard/internal/policy"
	"pard/internal/profile"
	"pard/internal/sched"
	"pard/internal/server"

	"math/rand"
)

var (
	benchHarness     *pard.ExperimentHarness
	benchHarnessOnce sync.Once
)

// harness returns a shared experiment harness so benches reuse cached
// simulation runs (Figs. 8-10 share all 48 workload×policy runs).
func harness() *pard.ExperimentHarness {
	benchHarnessOnce.Do(func() {
		benchHarness = pard.NewExperimentHarness(pard.ExperimentConfig{Scale: pard.ScaleSmoke, Seed: 1})
	})
	return benchHarness
}

// runExperiment executes one artifact through the shared harness and logs
// its tables.
func runExperiment(b *testing.B, id string) *pard.ExperimentOutput {
	b.Helper()
	var exp pard.Experiment
	found := false
	for _, e := range pard.Experiments() {
		if e.ID == id {
			exp, found = e, true
			break
		}
	}
	if !found {
		b.Fatalf("experiment %s not registered", id)
	}
	var out *pard.ExperimentOutput
	for i := 0; i < b.N; i++ {
		var err error
		out, err = exp.Run(harness())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, t := range out.Tables {
		b.Log("\n" + t.Render())
	}
	return out
}

// cell parses a table cell as a float, stripping % signs.
func cell(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		b.Fatalf("bad cell %q: %v", s, err)
	}
	return v
}

func BenchmarkFig2aMinGoodput(b *testing.B) {
	out := runExperiment(b, "fig2a")
	// columns: window, pard, nexus, clipper++, naive
	b.ReportMetric(cell(b, out.Tables[0].Rows[0][1]), "pard-min-goodput")
	b.ReportMetric(cell(b, out.Tables[0].Rows[0][4]), "naive-min-goodput")
}

func BenchmarkFig2bDropRate(b *testing.B) {
	out := runExperiment(b, "fig2b")
	b.ReportMetric(cell(b, out.Tables[0].Rows[0][1]), "pard-drop-pct")
}

func BenchmarkFig2cDropsPerModule(b *testing.B) {
	out := runExperiment(b, "fig2c")
	// last-module drop share of lv-tweet under the reactive policy
	rows := out.Tables[0].Rows
	b.ReportMetric(cell(b, rows[len(rows)-1][1]), "reactive-lastmod-pct")
}

func BenchmarkFig2dTransientDropRate(b *testing.B) {
	out := runExperiment(b, "fig2d")
	max := 0.0
	for _, row := range out.Tables[0].Rows {
		if v := cell(b, row[1]); v > max {
			max = v
		}
	}
	b.ReportMetric(max, "max-transient-drop-pct")
}

func BenchmarkFig6BatchWaitPDF(b *testing.B) {
	out := runExperiment(b, "fig6")
	// q10 of the full M1..M4 aggregation (paper: 0.31).
	b.ReportMetric(cell(b, out.Tables[0].Rows[0][1]), "q10-frac")
}

func BenchmarkFig8DropInvalid(b *testing.B) {
	out := runExperiment(b, "fig8")
	var pardSum, nexusSum float64
	for _, row := range out.Tables[0].Rows {
		pardSum += cell(b, row[1])
		nexusSum += cell(b, row[2])
	}
	n := float64(len(out.Tables[0].Rows))
	b.ReportMetric(pardSum/n, "pard-avg-drop-pct")
	b.ReportMetric(nexusSum/n, "nexus-avg-drop-pct")
}

func BenchmarkFig9MaxDropWindows(b *testing.B) {
	out := runExperiment(b, "fig9")
	b.ReportMetric(float64(len(out.Tables)), "panels")
}

func BenchmarkFig10GoodputTimeline(b *testing.B) {
	out := runExperiment(b, "fig10")
	b.ReportMetric(float64(len(out.Tables)), "panels")
}

func BenchmarkFig11Ablation(b *testing.B) {
	out := runExperiment(b, "fig11")
	for _, row := range out.Tables[0].Rows {
		if row[0] == "pard" {
			b.ReportMetric(cell(b, row[1]), "pard-drop-pct")
		}
	}
}

func BenchmarkFig12aConsumedBudget(b *testing.B) {
	out := runExperiment(b, "fig12a")
	b.ReportMetric(float64(len(out.Tables[0].Rows)), "time-buckets")
}

func BenchmarkFig12bLatencyCDF(b *testing.B) {
	out := runExperiment(b, "fig12b")
	// median ΣW (ms): the uncertain quantity PARD estimates.
	for _, row := range out.Tables[0].Rows {
		if row[0] == "p50" {
			b.ReportMetric(cell(b, row[2]), "median-sumW-ms")
		}
	}
}

func BenchmarkFig12cQueueingBurst(b *testing.B) {
	out := runExperiment(b, "fig12c")
	b.ReportMetric(float64(len(out.Tables)), "policies")
}

func BenchmarkFig12dRemainingBudget(b *testing.B) {
	out := runExperiment(b, "fig12d")
	b.ReportMetric(float64(len(out.Tables[0].Rows)), "requests")
}

func BenchmarkFig13LoadFactor(b *testing.B) {
	out := runExperiment(b, "fig13")
	for _, t := range out.Tables {
		if t.ID != "fig13-switches" {
			continue
		}
		for _, row := range t.Rows {
			if row[0] == "pard" {
				b.ReportMetric(cell(b, row[1]), "pard-switches")
			}
			if row[0] == "pard-instant" {
				b.ReportMetric(cell(b, row[1]), "instant-switches")
			}
		}
	}
}

func BenchmarkFig14aStress(b *testing.B) {
	out := runExperiment(b, "fig14a")
	last := out.Tables[0].Rows[len(out.Tables[0].Rows)-1]
	b.ReportMetric(cell(b, last[1]), "pard-goodput-at-max-rate")
	b.ReportMetric(cell(b, last[4]), "naive-goodput-at-max-rate")
}

func BenchmarkFig14bSLOSensitivity(b *testing.B) {
	out := runExperiment(b, "fig14b")
	b.ReportMetric(cell(b, out.Tables[0].Rows[0][1]), "pard-drop-at-200ms")
}

func BenchmarkFig14cLambdaSensitivity(b *testing.B) {
	out := runExperiment(b, "fig14c")
	for _, row := range out.Tables[0].Rows {
		if row[0] == "0.100" {
			b.ReportMetric(cell(b, row[1]), "lv-drop-at-lambda-0.1")
		}
	}
}

func BenchmarkFig14dWindowSensitivity(b *testing.B) {
	out := runExperiment(b, "fig14d")
	b.ReportMetric(float64(len(out.Tables[0].Rows)), "window-points")
}

func BenchmarkFig15aRAGGoodput(b *testing.B) {
	out := runExperiment(b, "fig15a")
	for _, row := range out.Tables[0].Rows {
		b.ReportMetric(cell(b, row[2]), row[0]+"-drop-pct")
	}
}

func BenchmarkFig15bRAGLatency(b *testing.B) {
	out := runExperiment(b, "fig15b")
	b.ReportMetric(float64(len(out.Tables[0].Rows)), "percentiles")
}

func BenchmarkDAGDynamicPaths(b *testing.B) {
	out := runExperiment(b, "dag-dynamic")
	b.ReportMetric(float64(len(out.Tables[0].Rows)), "traces")
}

// Sharded single-run execution (per-module event lanes).

// benchShardedDA runs the paper's 5-module DA DAG at a balanced high load
// (every module processes the full request stream, so all five lanes carry
// dense traffic) with the given shard count. NetDelay doubles as the lane
// engine's conservative lookahead window.
func benchShardedDA(b *testing.B, shards int) {
	tr := pard.GenerateTrace(pard.TraceConfig{
		Kind: pard.Steady, Duration: 20 * time.Second, PeakRate: 3500, Seed: 1,
	})
	cfg := pard.SimConfig{
		Spec:         pard.DA(),
		PolicyName:   "pard",
		Trace:        tr,
		Seed:         1,
		SyncPeriod:   time.Second,
		NetDelay:     5 * time.Millisecond,
		FixedWorkers: []int{40, 40, 40, 40, 40},
		Shards:       shards,
	}
	b.ResetTimer()
	var res *pard.SimResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = pard.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.SimEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkShardedDASequential is the engine exactly as an unset config
// runs it: per-module lanes, one worker. The canonical event order of the
// sharded path with zero concurrency, and the baseline the differential
// harness compares against.
func BenchmarkShardedDASequential(b *testing.B) { benchShardedDA(b, 1) }

// BenchmarkShardedDASharded runs the same workload with one shard per
// module: lanes advance concurrently inside lookahead windows and the sync
// tick's per-module publication fans out across the shards. Comparing
// ns/op against Sequential above measures the intra-run speedup of
// per-module event sharding (the win over Sequential requires
// GOMAXPROCS > 1; on a single CPU the two are within noise, i.e. the
// sharding machinery itself costs ~nothing). The differential harness in
// internal/sched proves the outputs are byte-identical to Sequential.
func BenchmarkShardedDASharded(b *testing.B) { benchShardedDA(b, 5) }

// benchLaneGroupCfg is the workload for the lane-group barrier benchmarks:
// a short DA run with a tight sync period, so the per-window barrier
// exchange (posts + intents + charges all-gather) dominates the topology
// overhead being measured.
func benchLaneGroupCfg(b *testing.B) pard.SimConfig {
	b.Helper()
	tr := pard.GenerateTrace(pard.TraceConfig{
		Kind: pard.Steady, Duration: 4 * time.Second, PeakRate: 300, Seed: 1,
	})
	return pard.SimConfig{
		Spec:         pard.DA(),
		PolicyName:   "pard",
		Trace:        tr,
		Seed:         1,
		SyncPeriod:   100 * time.Millisecond,
		FixedWorkers: []int{8, 8, 8, 8, 8},
	}
}

// BenchmarkLaneGroupBarrier measures the lane-group exchange machinery by
// running the identical 2-group simulation over both Transport
// implementations: the in-process memTransport (Config.Groups) and the
// framed gob transport over real loopback TCP (internal/dist, the -hosts
// path). The mem/gob gap is the wire cost of the lockstep protocol — gob
// encode/decode plus kernel round trips per exchange; the gob variant also
// spans two full cluster replicas, hub and spoke, per op. Both are gated in
// the BENCH_<n>.json trajectory so protocol regressions (chattier barriers,
// per-exchange allocation growth) surface in CI.
func BenchmarkLaneGroupBarrier(b *testing.B) {
	cfg := benchLaneGroupCfg(b)

	b.Run("mem", func(b *testing.B) {
		c := cfg
		c.Groups = 2
		for i := 0; i < b.N; i++ {
			if _, err := pard.Simulate(c); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("gob-loopback", func(b *testing.B) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		for i := 0; i < b.N; i++ {
			spokeDone := make(chan error, 1)
			go func() {
				conn, err := l.Accept()
				if err != nil {
					spokeDone <- err
					return
				}
				_, err = dist.ServeSim(conn, dist.SimOptions{})
				spokeDone <- err
			}()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := dist.RunSimDistributed(cfg, []net.Conn{conn}, dist.SimOptions{}); err != nil {
				b.Fatal(err)
			}
			if err := <-spokeDone; err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSweepGrid measures the end-to-end sweep hot loop — trace
// generation, simulation, metrics collection, and percentile finalization —
// on a small Fig. 13-style grid (lv × tweet × {pard, pard-instant} with
// load-factor probes). Each iteration builds a fresh engine with no disk
// cache, so nothing is served warm: allocs/op here is the allocation cost
// of one whole grid, which is what the scratch-buffer reuse across
// metrics/stats/trace/sweep is meant to hold down.
func BenchmarkSweepGrid(b *testing.B) {
	specs := []pard.SweepSpec{
		{App: "lv", Kind: pard.Tweet, Policy: "pard",
			Opts: pard.SweepRunOpts{Probes: pard.ProbeConfig{LoadFactor: true}}},
		{App: "lv", Kind: pard.Tweet, Policy: "pard-instant",
			Opts: pard.SweepRunOpts{Probes: pard.ProbeConfig{LoadFactor: true}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := pard.NewSweepEngine(pard.SweepConfig{
			Workers: 1, BaseSeed: 1, TraceDuration: 30 * time.Second,
		})
		results, err := eng.Sweep(specs)
		if err != nil {
			b.Fatal(err)
		}
		// Finalize the derived metrics every real sweep consumer reads.
		for _, res := range results {
			s := res.Collector.Summary()
			if s.Total == 0 {
				b.Fatal("empty run")
			}
			res.Collector.MinNormalizedGoodput(10 * time.Second)
			res.Collector.MaxDropRate(10 * time.Second)
			res.Collector.LatencyQuantiles(0.5, 0.9, 0.99)
		}
	}
	b.ReportMetric(float64(len(specs)), "grid-points")
}

// BenchmarkServerSubmit measures the live server's request lifecycle on the
// data-plane hot path: submit (atomic ID, slab-allocated request, pooled
// channel, outstanding-list registration), core traversal of a 3-module
// chain, and response delivery. The executor is a deterministic manual
// clock, so no wall-time sleeping pollutes ns/op: requests are submitted in
// batches and the virtual clock stepped until every response resolves.
// Gated in the BENCH_<n>.json trajectory alongside the engine benchmarks —
// this is the path pard-load hammers over HTTP.
func BenchmarkServerSubmit(b *testing.B) {
	lib := profile.NewLibrary()
	if err := lib.Add(profile.Model{
		Name:     "fast",
		Alpha:    200 * time.Microsecond,
		Beta:     100 * time.Microsecond,
		MaxBatch: 8,
	}); err != nil {
		b.Fatal(err)
	}
	const slo = 150 * time.Millisecond
	man := sched.NewManualExecutor()
	s, err := server.New(server.Config{
		Spec:       pipeline.Uniform("bench", 3, "fast", slo),
		Lib:        lib,
		PolicyName: "pard",
		SyncPeriod: 50 * time.Millisecond,
		Seed:       1,
		Exec:       man,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	const batch = 512
	chans := make([]<-chan server.Response, batch)
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := batch
		if left := b.N - done; left < n {
			n = left
		}
		for j := 0; j < n; j++ {
			chans[j] = s.Submit()
		}
		// Step virtual time until the whole batch resolved (complete or
		// dropped); the core guarantees every injected request terminates.
		next := 0
		for guard := 0; next < n; guard++ {
			man.RunUntil(man.Now() + slo)
			for ; next < n; next++ {
				select {
				case <-chans[next]:
				default:
					goto stepped
				}
			}
		stepped:
			if guard > 1000 {
				b.Fatalf("batch stalled: %d/%d resolved", next, n)
			}
		}
		done += n
	}
	b.StopTimer()
	s.Stop()
}

// Micro-benchmarks for the §5.4 overhead analysis.

// BenchmarkDEPQOps measures put()/get() on the min-max heap at the queue
// depths the paper reports O(log n) costs for.
func BenchmarkDEPQOps(b *testing.B) {
	q := depq.New[int]()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		q.Push(i, int64(rng.Intn(1<<20)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i, int64(rng.Intn(1<<20)))
		if i%2 == 0 {
			q.PopMin()
		} else {
			q.PopMax()
		}
	}
}

// BenchmarkStateSync measures one full synchronization round: publishing
// five modules' state and refreshing PARD's estimator and priority
// controllers.
func BenchmarkStateSync(b *testing.B) {
	spec := pipeline.LV()
	durs := make([]time.Duration, spec.N())
	for i := range durs {
		durs[i] = 30 * time.Millisecond
	}
	pol, err := policy.New("pard", policy.Setup{
		Spec: spec,
		Durs: durs,
		Rng:  rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	board := core.NewBoard(spec.N())
	waits := make([]float64, 512)
	rng := rand.New(rand.NewSource(2))
	for i := range waits {
		waits[i] = rng.Float64() * 0.03
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < spec.N(); k++ {
			board.Publish(k, core.ModuleState{
				QueueDelay:  5 * time.Millisecond,
				ProfiledDur: 30 * time.Millisecond,
				BatchWait:   waits,
				InputRate:   300,
				Throughput:  400,
			})
		}
		pol.OnSync(time.Duration(i)*time.Second, board)
	}
}
