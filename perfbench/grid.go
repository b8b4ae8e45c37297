package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/policy"
	"pard/internal/profile"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/sweep"
	"pard/internal/trace"
)

// sim-grid: the Figs. 8-10 grid (4 apps x wiki/tweet/azure x the four
// compared policies, 48 runs) through sweep.Engine, with autoscaling on and
// no disk cache, at 60 s of virtual trace per run.

const (
	gridTraceDur = 60 * time.Second
	gridSetups   = 3
)

var (
	gridApps  = []string{"lv", "tm", "gm", "da"}
	gridKinds = []trace.Kind{trace.Wiki, trace.Tweet, trace.Azure}
)

func gridSpecs() []sweep.Spec {
	var specs []sweep.Spec
	for _, kind := range gridKinds {
		for _, app := range gridApps {
			for _, pol := range policy.Comparison() {
				specs = append(specs, sweep.Spec{App: app, Kind: kind, Policy: pol})
			}
		}
	}
	return specs
}

// gridSetup builds a sweep engine for the seed and synthesizes the grid's
// traces into its cache: everything a grid needs before its first run.
func gridSetup(seed int64, onProgress func(sweep.Progress)) (*sweep.Engine, error) {
	eng := sweep.New(sweep.Config{
		Workers:       workers(),
		BaseSeed:      seed,
		TraceDuration: gridTraceDur,
		OnProgress:    onProgress,
	})
	for _, k := range gridKinds {
		if _, err := eng.Trace(k); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// finalize derives what Figs. 8-10 read from one run's collector.
func finalize(col *metrics.Collector) {
	const w = 10 * time.Second
	col.Summary()
	col.Windows(w)
	col.LatencyQuantiles(0.5, 0.99)
	col.MinNormalizedGoodput(w)
	col.MaxDropRate(w)
}

// digest hashes every record of every run, so repeated grids can be
// compared cheaply.
func digest(results []*simgpu.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, r := range results {
		for _, rec := range r.Collector.Records() {
			put(int64(rec.Send))
			put(int64(rec.Done))
			put(int64(rec.Outcome))
			put(int64(rec.DropModule))
			put(int64(rec.GPUTime))
		}
		put(int64(r.SimEvents))
	}
	return h.Sum64()
}

// checkGrid verifies that every grid point resolved each arrival exactly
// once.
func checkGrid(rep *report, eng *sweep.Engine, specs []sweep.Spec, results []*simgpu.Result) {
	for i, res := range results {
		tr, err := eng.Trace(specs[i].Kind)
		if err != nil {
			rep.check(false, "trace %s: %v", specs[i].Kind, err)
			continue
		}
		s := res.Summary
		ok := s.Good+s.Late+s.Dropped == tr.Len() && s.Total == tr.Len() && s.Rejected == 0
		rep.check(ok, "%s: good %d + late %d + dropped %d != %d arrivals",
			specs[i].Key(), s.Good, s.Late, s.Dropped, tr.Len())
		if !ok {
			rep.failed++
		}
	}
}

// pardStats pools the PARD runs of a grid: good share and the latency
// quantiles of completed requests (simulated time).
func pardStats(specs []sweep.Spec, results []*simgpu.Result, m map[string]float64) {
	var good, total int
	var lats []float64
	for i, res := range results {
		if specs[i].Policy != "pard" {
			continue
		}
		s := res.Summary
		good += s.Good
		total += s.Total
		for _, r := range res.Collector.Records() {
			if r.Outcome == metrics.Good || r.Outcome == metrics.Late {
				lats = append(lats, ms(r.Done-r.Send))
			}
		}
	}
	m["pard_good_pct"] = 100 * float64(good) / float64(total)
	m["p50_ms"] = quantile(lats, 0.5)
	m["p99_ms"] = quantile(lats, 0.99)
}

func runSimGrid(o runOpts) (*report, error) {
	if o.tr != nil {
		return tracedSimGrid(o)
	}
	rep := newReport()
	specs := gridSpecs()
	var setups, rates []float64
	var cpu time.Duration
	var simulated int
	var first uint64
	var firstResults []*simgpu.Result
	start := time.Now()
	for time.Since(start) < o.seconds || len(rates) < 2 {
		// Each grid sets up gridSetups engines and keeps the last, so that
		// setup_s is a median over set-ups spread across the whole run.
		var eng *sweep.Engine
		for i := 0; i < gridSetups; i++ {
			t0 := time.Now()
			e, err := gridSetup(o.seed, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			eng = e
		}

		c0 := cpuTime()
		t1 := time.Now()
		results, err := eng.Sweep(specs)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			finalize(r.Collector)
		}
		wall := time.Since(t1)
		cpu += cpuTime() - c0

		rep.attempted += len(specs)
		checkGrid(rep, eng, specs, results)
		n := 0
		for _, r := range results {
			n += r.Summary.Total
		}
		simulated += n
		rates = append(rates, float64(n)/wall.Seconds())
		d := digest(results)
		if firstResults == nil {
			first, firstResults = d, results
		}
		if d != first {
			rep.failed++
			rep.check(false, "grid repeat %d differs from the first grid of the same seed", len(rates))
		}
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["sim_req_per_s"] = median(rates)
	rep.metrics["cpu_us_per_req"] = float64(cpu.Microseconds()) / float64(simulated)
	pardStats(specs, firstResults, rep.metrics)
	return rep, nil
}

// tracedSimGrid runs the grid once through the sweep engine with its
// progress callback recording spans, then replays every grid point through
// sched's public API with a span around each call into the core.
func tracedSimGrid(o runOpts) (*report, error) {
	rep := newReport()
	tr := o.tr
	specs := gridSpecs()
	var mu sync.Mutex
	var runMS []float64
	var runBusy, traceBusy time.Duration
	parent := int64(-1)
	onProgress := func(p sweep.Progress) {
		end := time.Now()
		mu.Lock()
		defer mu.Unlock()
		name := "sweep.run"
		if strings.HasPrefix(p.Key, "trace|") {
			name = "trace.generate"
			traceBusy += p.Elapsed
		} else {
			runBusy += p.Elapsed
			runMS = append(runMS, ms(p.Elapsed))
		}
		tr.add(parent, name, end.Add(-p.Elapsed), end, -1)
	}
	setupID := tr.id()
	t0 := time.Now()
	mu.Lock()
	parent = setupID
	mu.Unlock()
	eng, err := gridSetup(o.seed, onProgress)
	if err != nil {
		return nil, err
	}
	tr.end(setupID, -1, "setup", t0, time.Now(), -1)

	sweepID := tr.id()
	mu.Lock()
	parent = sweepID
	mu.Unlock()
	t1 := time.Now()
	results, err := eng.Sweep(specs)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t1)
	tr.end(sweepID, -1, "sweep", t1, time.Now(), -1)
	rep.attempted += len(specs)
	checkGrid(rep, eng, specs, results)

	var events uint64
	for _, r := range results {
		events += r.SimEvents
	}
	m := rep.metrics
	m["sweep.busy_pct"] = 100 * runBusy.Seconds() / (wall.Seconds() * float64(workers()))
	m["sweep.run_ms_max"] = quantile(runMS, 1)
	m["sweep.run_ms_p50"] = quantile(runMS, 0.5)
	m["trace.generate_ms"] = ms(traceBusy)
	m["simgpu.events"] = float64(events)
	m["simgpu.ns_per_event"] = float64(runBusy.Nanoseconds()) / float64(events)

	t2 := time.Now()
	for _, r := range results {
		finalize(r.Collector)
	}
	tr.add(-1, "metrics.finalize", t2, time.Now(), -1)
	m["metrics.finalize_ms"] = ms(time.Since(t2))

	policyStats(specs, results, m)
	replicateGrid(o, rep, eng, specs, results)
	return rep, nil
}

// policyStats reports, over the PARD runs, the share of GPU time spent on
// requests that did not end good, the share of requests the policy dropped,
// and the share of those drops made at the pipeline's source.
func policyStats(specs []sweep.Spec, results []*simgpu.Result, m map[string]float64) {
	var dropped, atSource, total int
	var wasted, gpu time.Duration
	for i, res := range results {
		if specs[i].Policy != "pard" {
			continue
		}
		src := pipeline.Apps()[specs[i].App].Source()
		total += res.Summary.Total
		wasted += res.Summary.GPUWasted
		gpu += res.Summary.GPUTotal
		for _, r := range res.Collector.Records() {
			if r.Outcome == metrics.DroppedOutcome {
				dropped++
				if r.DropModule == src {
					atSource++
				}
			}
		}
	}
	m["policy.wasted_gpu_pct"] = 100 * float64(wasted) / float64(gpu)
	m["policy.drop_pct"] = 100 * float64(dropped) / float64(total)
	if dropped > 0 {
		m["policy.source_drop_share_pct"] = 100 * float64(atSource) / float64(dropped)
	}
}

// replicaTimes is what one replayed grid point spent in each core call.
type replicaTimes struct {
	inject, sync, scale, run, control time.Duration
	syncTicks                         int
	laneEvents, controlEvents         uint64
	requests                          int
}

// replicateGrid replays every grid point through sched's public API, on
// the seed and trace the sweep engine used, on workers() goroutines, and
// checks each replica against the engine's simgpu.Run result record for
// record.
func replicateGrid(o runOpts, rep *report, eng *sweep.Engine, specs []sweep.Spec, results []*simgpu.Result) {
	lib := eng.Config().Library
	times := make([]replicaTimes, len(specs))
	errs := make([]error, len(specs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := specs[i]
				tr, err := eng.Trace(s.Kind)
				if err != nil {
					errs[i] = err
					continue
				}
				seed := eng.SeedFor("run|" + s.Key())
				recs, events, t, err := replicate(o.tr, pipeline.Apps()[s.App], lib, s.Policy, tr, seed)
				if err != nil {
					errs[i] = err
					continue
				}
				times[i] = t
				if msg := sameRecords(recs, results[i].Collector.Records()); msg != "" {
					errs[i] = fmt.Errorf("replica of %s differs from simgpu.Run: %s", s.Key(), msg)
				} else if events != results[i].SimEvents {
					errs[i] = fmt.Errorf("replica of %s fired %d events, simgpu.Run %d", s.Key(), events, results[i].SimEvents)
				}
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.check(false, "%s: %v", specs[i].Key(), err)
		}
	}
	var sum replicaTimes
	for _, t := range times {
		sum.inject += t.inject
		sum.sync += t.sync
		sum.scale += t.scale
		sum.run += t.run
		sum.control += t.control
		sum.syncTicks += t.syncTicks
		sum.laneEvents += t.laneEvents
		sum.controlEvents += t.controlEvents
		sum.requests += t.requests
	}
	m := rep.metrics
	m["traced.sim_req_per_s"] = float64(sum.requests) / wall.Seconds()
	m["sched.inject_ms"] = ms(sum.inject)
	m["sched.sync_ticks"] = float64(sum.syncTicks)
	m["sched.sync_ms"] = ms(sum.sync)
	m["sched.scale_ms"] = ms(sum.scale)
	m["sched.lane_ms"] = ms(sum.run - sum.control)
	m["sched.lane_events"] = float64(sum.laneEvents)
	m["sched.control_events"] = float64(sum.controlEvents)
}

// replicate runs one grid point the way simgpu.Run does for a sweep grid
// point (simgpu.Config defaults, autoscaling on, one lane shard), through
// sched's public API, timing each call into the core. It returns the
// per-request records in simgpu's form and the number of events fired.
func replicate(tr *tracer, spec *pipeline.Spec, lib *profile.Library, pol string, trc *trace.Trace, seed int64) ([]metrics.Record, uint64, replicaTimes, error) {
	var t replicaTimes
	const (
		batchFrac  = 0.5
		syncPeriod = time.Second
		netDelay   = time.Millisecond
	)
	scaling := sched.DefaultScaling()
	batches, _, err := sched.TargetBatches(spec, lib, batchFrac)
	if err != nil {
		return nil, 0, t, err
	}
	rate := trc.Slice(0, 10*time.Second).MeanRate()
	if rate <= 0 {
		rate = trc.MeanRate()
	}
	workers, err := sched.ProvisionWorkers(spec, lib, batches, rate, scaling.Headroom, scaling.MinWorkers, scaling.MaxWorkers)
	if err != nil {
		return nil, 0, t, err
	}
	sched.ApplyGPUBudget(workers, scaling.TotalGPUs, scaling.MinWorkers)

	shx := sched.NewShardedExecutor(spec.N(), 1, netDelay)
	outstanding := 0
	cl, err := sched.New(sched.Config{
		Spec:          spec,
		Lib:           lib,
		PolicyName:    pol,
		Seed:          seed,
		BatchFrac:     batchFrac,
		Workers:       workers,
		QueueWindow:   5 * time.Second,
		WaitReservoir: 512,
		NetDelay:      netDelay,
		JitterPct:     0.05,
		Scaling:       scaling,
		Probes:        sched.ProbeConfig{SampleEvery: 1},
		OnDone:        func(*sched.Request, time.Duration) { outstanding-- },
		OnDrop:        func(*sched.Request, int, time.Duration) { outstanding-- },
	}, shx)
	if err != nil {
		return nil, 0, t, err
	}

	pointID := tr.id()
	pointStart := time.Now()
	slab := make([]sched.Request, trc.Len())
	t0 := time.Now()
	for i, at := range trc.Arrivals {
		req := &slab[i]
		req.ID = uint64(i)
		req.Send = at
		req.Deadline = at + spec.SLO
		req.DropModule = -1
		outstanding++
		cl.Inject(req, at)
	}
	t1 := time.Now()
	t.inject = t1.Sub(t0)
	tr.add(pointID, "sched.inject", t0, t1, -1)

	runID := tr.id()
	drained := func(now time.Duration) bool { return outstanding <= 0 && now >= trc.Duration }
	tick := func(name string, fn func(time.Duration), busy *time.Duration) func(time.Duration) bool {
		return func(now time.Duration) bool {
			c0 := time.Now()
			fn(now)
			c1 := time.Now()
			cl.ControlFlush()
			c2 := time.Now()
			*busy += c1.Sub(c0)
			t.control += c2.Sub(c0)
			ctl := tr.id()
			tr.add(ctl, name, c0, c1, -1)
			tr.end(ctl, runID, "sched.control", c0, c2, -1)
			return !drained(now)
		}
	}
	shx.Ticker(syncPeriod, "sync", tick("sched.sync", func(now time.Duration) {
		t.syncTicks++
		cl.SyncTick(now)
	}, &t.sync))
	if scaling.Enabled {
		shx.Ticker(scaling.Period, "scale", tick("sched.scale", cl.ScaleTick, &t.scale))
	}
	r0 := time.Now()
	shx.Run()
	r1 := time.Now()
	t.run = r1.Sub(r0)
	tr.end(runID, pointID, "sched.run", r0, r1, -1)
	tr.end(pointID, -1, "replica", pointStart, r1, -1)
	t.laneEvents = shx.FiredLanes()
	t.controlEvents = shx.FiredControl()
	t.requests = len(slab)

	recs := make([]metrics.Record, len(slab))
	for i := range slab {
		req := &slab[i]
		rec := metrics.Record{Send: req.Send, GPUTime: req.GPU, DropModule: -1}
		switch {
		case req.Finished:
			rec.Done = req.DoneAt
			rec.Outcome = metrics.Late
			if req.DoneAt-req.Send <= spec.SLO {
				rec.Outcome = metrics.Good
			}
		case req.Dropped:
			rec.Done = req.DropAt
			rec.Outcome = metrics.DroppedOutcome
			rec.DropModule = req.DropModule
		default:
			rec.Done = req.Send
			rec.Outcome = metrics.DroppedOutcome
		}
		recs[i] = rec
	}
	return recs, shx.Fired(), t, nil
}

// sameRecords describes the first difference between two record lists, or
// returns "" when they are identical.
func sameRecords(a, b []metrics.Record) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d records vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("record %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return ""
}
