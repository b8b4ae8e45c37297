package simgpu

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"pard/internal/core"
	"pard/internal/metrics"
	"pard/internal/sched"
)

// Result is everything one simulation run produces.
type Result struct {
	// Collector holds the per-request outcomes and derived metrics.
	Collector *metrics.Collector
	// Summary is Collector.Summary(), precomputed.
	Summary metrics.Summary
	// PolicyName echoes the configured policy.
	PolicyName string
	// Workload is "<app>-<trace>".
	Workload string

	// TargetBatches and ProfiledDurs are the offline-profiling outputs used.
	TargetBatches []int
	ProfiledDurs  []time.Duration
	// PeakWorkers is the maximum concurrently active workers per module.
	PeakWorkers []int

	// Probe outputs (nil unless the corresponding probe was enabled).
	QueueDelay       []*metrics.Series // per module, ms
	LoadFactor       *metrics.Series   // module LoadModule's μ
	ModeSeries       *metrics.Series   // 0=LBF, 1=HBF
	Consumed         []*metrics.Series // per module consumed budget, ms
	Remaining        []*metrics.Series // per module remaining budget at arrival, ms
	WaitSamples      [][]float64       // per module batch-wait samples, seconds
	SumQ, SumW, SumD []float64         // per completed request, seconds

	// PrioritySwitches counts HBF↔LBF transitions (Fig. 13).
	PrioritySwitches int
	// SimEvents is the number of engine events dispatched.
	SimEvents uint64
}

// Runner executes one configuration: the shared scheduling core
// (internal/sched) on the per-module lane engine in virtual time, plus
// trace injection and result collection.
type Runner struct {
	cfg Config
	shx *sched.ShardedExecutor
	cl  *sched.Cluster

	requests    []*sched.Request
	slab        []sched.Request // backing store; wire request IDs index it
	outstanding int

	sumQ, sumW, sumD []float64
	sampleCounter    int

	// Lane-group placement (zero topology and nil transport with zero
	// peers). Each group runner holds a complete cluster replica and
	// executes only its owned lanes. reports[k] is module k's owner-only
	// state (probes, peak workers) and fired the global event count, both
	// assembled at the end of the run (see finish).
	topo    sched.Topology
	tr      sched.Transport
	reports []*sched.ModuleReport
	fired   uint64
}

// New validates the configuration and assembles the cluster.
func New(cfg Config) (*Runner, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	// Provision workers: fixed counts, or sized for the early trace rate and
	// left to the scaling engine.
	workers := full.FixedWorkers
	if workers == nil {
		batches, _, err := sched.TargetBatches(full.Spec, full.Lib, full.BatchFrac)
		if err != nil {
			return nil, err
		}
		warmup := full.Trace.Slice(0, 10*time.Second)
		rate := warmup.MeanRate()
		if rate <= 0 {
			rate = full.Trace.MeanRate()
		}
		workers, err = sched.ProvisionWorkers(full.Spec, full.Lib, batches, rate,
			full.Scaling.Headroom, full.Scaling.MinWorkers, full.Scaling.MaxWorkers)
		if err != nil {
			return nil, err
		}
		sched.ApplyGPUBudget(workers, full.Scaling.TotalGPUs, full.Scaling.MinWorkers)
	}

	r := &Runner{cfg: full}
	if rt := full.Remote; rt != nil {
		// One lane group of a multi-group topology: the full cluster is
		// built as a replica, but only owned lanes (module k with
		// k % Groups == Group) execute; everything else arrives through the
		// transport's lockstep exchanges.
		r.topo = sched.Topology{Groups: rt.Groups, Group: rt.Group}
		r.tr = rt.Transport
	}
	// One event lane per module, up to Shards workers, conservative
	// lookahead = the per-hop network delay.
	r.shx, err = sched.NewShardedExecutorTopo(full.Spec.N(), full.Shards, full.NetDelay, r.topo, r.tr)
	if err != nil {
		return nil, err
	}
	cl, err := sched.New(sched.Config{
		Spec:             full.Spec,
		Lib:              full.Lib,
		PolicyName:       full.PolicyName,
		Seed:             full.Seed,
		BatchFrac:        full.BatchFrac,
		Workers:          workers,
		QueueWindow:      full.QueueWindow,
		WaitReservoir:    full.WaitReservoir,
		NetDelay:         full.NetDelay,
		JitterPct:        full.JitterPct,
		Scaling:          full.Scaling,
		Probes:           full.Probes,
		Lambda:           full.Lambda,
		EstimatorSamples: full.EstimatorSamples,
		PriorityWindow:   full.PriorityWindow,
		OnDone:           r.onDone,
		OnDrop:           r.onDrop,
		Resolve:          r.resolveRequest,
	}, r.shx)
	if err != nil {
		return nil, err
	}
	r.cl = cl
	return r, nil
}

// onDone observes a request completing the sink module.
func (r *Runner) onDone(req *sched.Request, now time.Duration) {
	r.outstanding--
	if r.cfg.Probes.Decomposition {
		r.sampleCounter++
		if r.sampleCounter%r.cfg.Probes.SampleEvery == 0 {
			r.sumQ = append(r.sumQ, req.SumQ.Seconds())
			r.sumW = append(r.sumW, req.SumW.Seconds())
			r.sumD = append(r.sumD, req.SumD.Seconds())
		}
	}
}

// onDrop observes a request dropped at a module.
func (r *Runner) onDrop(req *sched.Request, k int, now time.Duration) {
	r.outstanding--
}

// resolveRequest maps a wire request ID back onto this process's slab — the
// Resolve hook multi-group topologies use to rehydrate requests that crossed
// the lane-group boundary by ID.
func (r *Runner) resolveRequest(id uint64) *sched.Request {
	if id < uint64(len(r.slab)) {
		return &r.slab[id]
	}
	return nil
}

// inject schedules all trace arrivals as client sends into the source
// module. Requests live in one slab — a single allocation instead of one
// per arrival — and r.requests points into it (pointer identity per request
// is preserved for the run's lifetime, which the core relies on). In a
// multi-group topology every replica injects the full trace: request i is
// &slab[i] on every group, so wire IDs resolve to the same logical request
// everywhere.
func (r *Runner) inject() {
	slo := r.cfg.Spec.SLO
	r.slab = make([]sched.Request, r.cfg.Trace.Len())
	slab := r.slab
	r.requests = make([]*sched.Request, 0, len(slab))
	for i, at := range r.cfg.Trace.Arrivals {
		req := &slab[i]
		req.ID = uint64(i)
		req.Send = at
		req.Deadline = at + slo
		req.DropModule = -1
		r.requests = append(r.requests, req)
		r.outstanding++
		r.cl.Inject(req, at)
	}
}

// drained reports whether the run can stop ticking.
func (r *Runner) drained(now time.Duration) bool {
	return r.outstanding <= 0 && now >= r.cfg.Trace.Duration
}

// Run executes the simulation to completion and returns the results.
func (r *Runner) Run() (*Result, error) {
	if r.requests != nil {
		return nil, fmt.Errorf("simgpu: runner already ran")
	}
	r.inject()
	r.runSharded()
	if err := r.shx.Err(); err != nil {
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return r.buildResult(), nil
}

// finish assembles the end-of-run per-module reports the result is built
// from: probes and peak workers live only on the owning group, and the
// global event count is the replicated control-lane count plus every
// group's owned-lane count. With peers the reports are all-gathered through
// the Finish exchange; with zero peers this replica's own are the full set.
func (r *Runner) finish() error {
	n := r.cl.N()
	msg := sched.FinishMsg{Group: int32(r.topo.Group), LaneFired: r.shx.FiredLanes()}
	for k := 0; k < n; k++ {
		if !r.topo.Owns(k) {
			continue
		}
		p := r.cl.Probes(k)
		msg.Reports = append(msg.Reports, sched.ModuleReport{
			Mod:         int32(k),
			Peak:        r.cl.PeakWorkers(k),
			QueueDelay:  p.QueueDelay,
			Load:        p.Load,
			Mode:        p.Mode,
			Budget:      p.Budget,
			Remain:      p.Remain,
			WaitSamples: p.WaitSamples,
		})
	}
	all := []sched.FinishMsg{msg}
	if r.tr != nil {
		var err error
		if all, err = r.tr.Finish(msg); err != nil {
			return err
		}
	}
	r.reports = make([]*sched.ModuleReport, n)
	r.fired = r.shx.FiredControl()
	for i := range all {
		r.fired += all[i].LaneFired
		for j := range all[i].Reports {
			rep := &all[i].Reports[j]
			if rep.Mod < 0 || int(rep.Mod) >= n {
				return fmt.Errorf("simgpu: finish report from group %d names module %d, out of range [0,%d)", all[i].Group, rep.Mod, n)
			}
			r.reports[rep.Mod] = rep
		}
	}
	for k, rep := range r.reports {
		if rep == nil {
			return fmt.Errorf("simgpu: finish exchange has no report for module %d", k)
		}
	}
	return nil
}

// runSharded drives the per-module lane engine. Sync, scaling and failure
// events run on the executor's serial control lane (every module lane
// parked), exactly the cross-module context they need.
func (r *Runner) runSharded() {
	// A tick's drops and completions commit at the barrier hook after the
	// tick, but the drained predicate right after must read the committed
	// counts — on every replica — or the groups could disagree on when the
	// run ends. ControlFlush commits them first.
	r.shx.Ticker(r.cfg.SyncPeriod, "sync", func(now time.Duration) bool {
		r.cl.SyncTick(now)
		r.cl.ControlFlush()
		return !r.drained(now)
	})
	if r.cfg.Scaling.Enabled {
		r.shx.Ticker(r.cfg.Scaling.Period, "scale", func(now time.Duration) bool {
			r.cl.ScaleTick(now)
			r.cl.ControlFlush()
			return !r.drained(now)
		})
	}
	for _, f := range r.cfg.Failures {
		f := f
		r.shx.Schedule(f.At, "failure", func(now time.Duration) {
			r.cl.Crash(f.Module, now, f.Count)
		})
	}
	r.shx.Run()
}

func (r *Runner) buildResult() *Result {
	col := metrics.NewCollector(r.cfg.Spec.SLO, r.cfg.Spec.N())
	col.Grow(len(r.requests))
	for _, req := range r.requests {
		rec := metrics.Record{
			Send:       req.Send,
			GPUTime:    req.GPU,
			DropModule: -1,
		}
		switch {
		case req.Finished:
			rec.Done = req.DoneAt
			if req.DoneAt-req.Send <= r.cfg.Spec.SLO {
				rec.Outcome = metrics.Good
			} else {
				rec.Outcome = metrics.Late
			}
		case req.Dropped:
			rec.Done = req.DropAt
			rec.Outcome = metrics.DroppedOutcome
			rec.DropModule = req.DropModule
		default:
			// Stranded in-flight at drain (should not happen; count against
			// the policy rather than hiding it).
			rec.Done = req.Send
			rec.Outcome = metrics.DroppedOutcome
		}
		col.Add(rec)
	}

	res := &Result{
		Collector:  col,
		Summary:    col.Summary(),
		PolicyName: r.cfg.PolicyName,
		Workload:   r.cfg.Spec.App + "-" + r.cfg.Trace.Name,
		SimEvents:  r.fired,
		SumQ:       r.sumQ,
		SumW:       r.sumW,
		SumD:       r.sumD,
	}
	n := r.cl.N()
	res.TargetBatches = make([]int, n)
	res.ProfiledDurs = make([]time.Duration, n)
	res.PeakWorkers = make([]int, n)
	for k := 0; k < n; k++ {
		res.TargetBatches[k] = r.cl.TargetBatch(k)
		res.ProfiledDurs[k] = r.cl.ProfiledDur(k)
		res.PeakWorkers[k] = r.reports[k].Peak
	}
	if r.cfg.Probes.QueueDelay {
		for k := 0; k < n; k++ {
			res.QueueDelay = append(res.QueueDelay, r.reports[k].QueueDelay)
		}
	}
	if r.cfg.Probes.LoadFactor {
		// Report the source module's controller (the module workload bursts
		// hit first; Fig. 13 plots a single representative module).
		src := r.reports[r.cfg.Spec.Source()]
		res.LoadFactor = src.Load
		res.ModeSeries = src.Mode
		if pr, ok := r.cl.Policy().(interface {
			Priority(int) *core.PriorityController
		}); ok {
			total := 0
			for k := 0; k < n; k++ {
				if pc := pr.Priority(k); pc != nil {
					total += pc.Switches()
				}
			}
			res.PrioritySwitches = total
		}
	}
	if r.cfg.Probes.Budget {
		for k := 0; k < n; k++ {
			p := r.reports[k]
			res.Consumed = append(res.Consumed, p.Budget)
			res.Remaining = append(res.Remaining, p.Remain)
		}
	}
	if r.cfg.Probes.Decomposition {
		for k := 0; k < n; k++ {
			res.WaitSamples = append(res.WaitSamples, r.reports[k].WaitSamples)
		}
	}
	return res
}

// Run is the one-call entry point: build a runner from cfg and execute it.
// Config.Groups > 1 fans the run out over in-process lane-group replicas.
func Run(cfg Config) (*Result, error) {
	if cfg.Remote == nil {
		full, err := cfg.withDefaults()
		if err != nil {
			return nil, err
		}
		if full.Groups > 1 {
			return runGroups(cfg, full.Groups)
		}
	}
	r, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// runGroups executes one run as `groups` in-process lane-group replicas over
// a memTransport fabric, then verifies determinism invariant #5: every
// replica must assemble the bit-identical result. Divergence is an error,
// never a silent pick-one.
//
// Each goroutine gets the RAW config: withDefaults is not idempotent (the
// NetDelay <= 0 sentinels), so normalization must happen exactly once per
// replica — identically — rather than once here and again inside.
func runGroups(cfg Config, groups int) (*Result, error) {
	trs := sched.NewMemTransports(groups)
	results := make([]*Result, groups)
	errs := make([]error, groups)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gcfg := cfg
			gcfg.Groups = 0
			gcfg.Remote = &RemoteTopology{Groups: groups, Group: g, Transport: trs[g]}
			res, err := Run(gcfg)
			if err != nil {
				// Poison the fabric so peer groups abort instead of hanging
				// at their next exchange.
				trs[g].Abort(err)
				errs[g] = err
				return
			}
			results[g] = res
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("simgpu: lane group %d/%d: %w", g, groups, err)
		}
	}
	var ref []byte
	for g, res := range results {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(res); err != nil {
			return nil, fmt.Errorf("simgpu: encoding lane group %d result: %w", g, err)
		}
		if g == 0 {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(ref, buf.Bytes()) {
			return nil, fmt.Errorf("simgpu: lane-group divergence: group %d result differs from group 0 (%d vs %d encoded bytes); determinism invariant #5 violated", g, buf.Len(), len(ref))
		}
	}
	return results[0], nil
}
