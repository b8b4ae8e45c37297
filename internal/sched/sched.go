// Package sched is the shared scheduling core of the Fig. 4 architecture:
// per-module controllers (state windows, batch dispatcher, priority/drop
// decisions), worker pools with batch assembly, state-board synchronization,
// budget accounting, the scaling engine and DAG fan-out/merge routing.
//
// The core always runs on the lane engine: one event lane per module plus a
// serial control lane. Drops and completions have one commit point, the
// engine's barrier hook, which runs after every lane window and after every
// control event; a single-group run is the lane-group run with zero peers.
// The same state machine runs in two places:
//
//   - the discrete-event simulator (internal/simgpu) drives the engine
//     (ShardedExecutor) to completion on virtual time, and
//   - the live server (internal/server) drives it incrementally (Driver)
//     from an Executor that supplies wall-clock time and timer wakes
//     (TimerExecutor), or an injected clock in tests (ManualExecutor).
//
// Both exercise the exact same dropping, batching, priority and commit code
// paths; a parity test in internal/server proves the simulator and the
// server on an injected clock decide every request identically.
package sched

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"pard/internal/core"
	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/policy"
	"pard/internal/profile"
)

// Config describes one cluster instantiation of the scheduling core.
type Config struct {
	// Spec is the validated pipeline (chain or DAG).
	Spec *pipeline.Spec
	// Lib provides model profiles; hosts pass their library explicitly
	// (no default is applied here).
	Lib *profile.Library
	// PolicyName selects the drop policy (see policy.Names()).
	PolicyName string
	// Seed derives the core's independent random streams. Execution jitter,
	// reservoir sampling and DAG branch choice use per-module streams hashed
	// from (seed, module, purpose) — module-local randomness is what lets
	// the sharded executor advance modules concurrently without consuming a
	// shared stream in racy order. Policy internals keep the shared seed+4
	// stream (drawn only in serial contexts: sync ticks and source-module
	// admission).
	Seed int64
	// BatchFrac sets the SLO share available for one pass of pure execution
	// when choosing target batch sizes (default 0.5).
	BatchFrac float64
	// Workers is the initial per-module worker count (required).
	Workers []int
	// QueueWindow is the sliding window for recent queueing delay
	// (default 5 s, §4.2 footnote 4).
	QueueWindow time.Duration
	// WaitReservoir is the per-module batch-wait sample reservoir size
	// (default 512).
	WaitReservoir int
	// NetDelay is the per-hop transfer delay between modules (>= 0).
	NetDelay time.Duration
	// JitterPct multiplies execution durations by 1 ± U[0,JitterPct]
	// (0 disables jitter unless the model profile carries its own).
	JitterPct float64
	// Scaling configures the resource scaling engine; ScaleTick is a no-op
	// unless Scaling.Enabled.
	Scaling ScalingConfig
	// Probes selects optional recordings.
	Probes ProbeConfig
	// Lambda overrides the PARD estimator quantile when > 0.
	Lambda float64
	// EstimatorSamples overrides the Monte-Carlo sample count when > 0.
	EstimatorSamples int
	// PriorityWindow overrides the priority smoothing window when > 0.
	PriorityWindow time.Duration

	// OnDone, when set, observes each request completing the sink module.
	OnDone func(req *Request, now time.Duration)
	// OnDrop, when set, observes each request dropped at a module.
	OnDrop func(req *Request, module int, now time.Duration)

	// Resolve maps a wire request ID onto this process's replica of the
	// Request. Required when the executor runs a multi-group topology
	// (every group holds the full request slab; requests cross the group
	// boundary by ID); unused otherwise.
	Resolve func(id uint64) *Request
}

// Cluster is one instantiated scheduling core: the controller + worker pool
// per module of Fig. 4, driven by a lane engine. Inject may be called from
// any goroutine on a Driver; every other method must be called from the
// engine's serial context (or before it starts running).
type Cluster struct {
	cfg Config
	pol policy.Policy

	modules []*module
	board   *core.Board

	// pathRngs holds per-module deterministic streams for exclusive DAG
	// branch choice (execution jitter and reservoir streams live on the
	// modules themselves).
	pathRngs []*rand.Rand
	jitter   float64

	batches []int
	durs    []time.Duration

	// The lane engine: lanes defer request terminations to the barrier
	// hook's commits and exchange cross-module events through its ordered
	// mailbox. ls is the executor the cluster was built on (a Driver
	// forwards host injections); shx is the engine itself.
	ls     laneScheduler
	shx    *ShardedExecutor
	bridge *laneBridge
	// inControl marks serial control context (sync/scale/failure
	// callbacks), where every module sees every pending termination. Only
	// ever flipped while every lane is parked.
	inControl bool

	// Lane-group topology (zero topology and nil transport with zero
	// peers): this cluster is one lane-group replica, exchanging board rows,
	// scaling demands, mailbox posts, charges and termination intents with
	// its peers through tr. See transport.go for the distribution model.
	topo    Topology
	tr      Transport
	resolve func(uint64) *Request
}

// streamSeed derives module k's independent seed for one random stream from
// the cluster seed via FNV-64a, the same derivation style the sweep engine
// uses for per-run seeds.
func streamSeed(seed int64, k int, purpose string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s", seed, k, purpose)
	return int64(h.Sum64())
}

// New validates the configuration and assembles the cluster on a lane
// engine: a *ShardedExecutor (simulation) or a *Driver (live hosts). Any
// other Executor is refused; wrap it in a Driver.
func New(cfg Config, exec Executor) (*Cluster, error) {
	ls, ok := exec.(laneScheduler)
	if !ok {
		return nil, fmt.Errorf("sched: executor %T has no event lanes; drive it through a Driver", exec)
	}
	if cfg.Spec == nil {
		return nil, fmt.Errorf("sched: config needs a pipeline spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Lib == nil {
		return nil, fmt.Errorf("sched: config needs a profile library")
	}
	if cfg.PolicyName == "" {
		cfg.PolicyName = "pard"
	}
	if cfg.BatchFrac <= 0 {
		cfg.BatchFrac = 0.5
	}
	if cfg.QueueWindow <= 0 {
		cfg.QueueWindow = 5 * time.Second
	}
	if cfg.WaitReservoir <= 0 {
		cfg.WaitReservoir = 512
	}
	if cfg.NetDelay < 0 {
		return nil, fmt.Errorf("sched: negative net delay %v", cfg.NetDelay)
	}
	if cfg.Probes.SampleEvery <= 0 {
		cfg.Probes.SampleEvery = 1
	}
	n := cfg.Spec.N()
	if len(cfg.Workers) != n {
		return nil, fmt.Errorf("sched: %d worker counts for %d modules", len(cfg.Workers), n)
	}

	batches, durs, err := TargetBatches(cfg.Spec, cfg.Lib, cfg.BatchFrac)
	if err != nil {
		return nil, err
	}

	x := ls.engine()
	if x.Lanes() != n {
		return nil, fmt.Errorf("sched: executor has %d lanes for %d modules", x.Lanes(), n)
	}
	if !x.topo.single() && cfg.Resolve == nil {
		return nil, fmt.Errorf("sched: a %d-group topology needs a Resolve hook (wire requests travel by ID)", x.topo.Groups)
	}
	c := &Cluster{
		cfg:     cfg,
		ls:      ls,
		shx:     x,
		board:   core.NewBoard(n),
		jitter:  cfg.JitterPct,
		batches: batches,
		durs:    durs,
		topo:    x.topo,
		tr:      x.tr,
		resolve: cfg.Resolve,
	}
	for k := 0; k < n; k++ {
		c.pathRngs = append(c.pathRngs, rand.New(rand.NewSource(streamSeed(cfg.Seed, k, "path"))))
	}
	c.bridge = newLaneBridge(c, n)
	x.setBarrierHook(c.barrier)

	estCfg := core.DefaultEstimatorConfig()
	if cfg.Lambda > 0 {
		estCfg.Lambda = cfg.Lambda
	}
	if cfg.EstimatorSamples > 0 {
		estCfg.Samples = cfg.EstimatorSamples
	}
	priCfg := core.DefaultPriorityConfig()
	if cfg.PriorityWindow > 0 {
		priCfg.Window = cfg.PriorityWindow
	}
	pol, err := policy.New(cfg.PolicyName, policy.Setup{
		Spec:   cfg.Spec,
		Durs:   durs,
		Rng:    rand.New(rand.NewSource(cfg.Seed + 4)),
		EstCfg: &estCfg,
		PriCfg: &priCfg,
	})
	if err != nil {
		return nil, err
	}
	c.pol = pol

	for k := 0; k < n; k++ {
		model, err := cfg.Lib.Get(cfg.Spec.Modules[k].Name)
		if err != nil {
			return nil, err
		}
		m := newModule(c, k, cfg.Spec.Modules[k], model, batches[k], durs[k], cfg.Workers[k])
		c.modules = append(c.modules, m)
	}
	return c, nil
}

// N returns the module count.
func (c *Cluster) N() int { return len(c.modules) }

// Policy returns the cluster's drop policy.
func (c *Cluster) Policy() policy.Policy { return c.pol }

// Board returns the shared cross-module state board.
func (c *Cluster) Board() *core.Board { return c.board }

// TargetBatch returns module k's target batch size.
func (c *Cluster) TargetBatch(k int) int { return c.batches[k] }

// ProfiledDur returns module k's profiled duration at its target batch.
func (c *Cluster) ProfiledDur(k int) time.Duration { return c.durs[k] }

// PeakWorkers returns the maximum concurrently active workers seen at
// module k.
func (c *Cluster) PeakWorkers(k int) int { return c.modules[k].peakWorkers }

// ActiveWorkers returns module k's current dispatcher-eligible worker count.
func (c *Cluster) ActiveWorkers(k int) int { return c.modules[k].activeWorkers() }

// Drops returns how many requests module k has dropped.
func (c *Cluster) Drops(k int) int { return c.modules[k].drops }

// ModuleProbes bundles module k's optional probe outputs (nil / empty unless
// the corresponding probe was enabled in the config).
type ModuleProbes struct {
	QueueDelay  *metrics.Series
	Load        *metrics.Series
	Mode        *metrics.Series
	Budget      *metrics.Series
	Remain      *metrics.Series
	WaitSamples []float64
}

// Probes returns module k's probe outputs.
func (c *Cluster) Probes(k int) ModuleProbes {
	m := c.modules[k]
	p := ModuleProbes{
		QueueDelay: m.queueDelayProbe,
		Load:       m.loadProbe,
		Mode:       m.modeProbe,
		Budget:     m.budgetProbe,
		Remain:     m.remainProbe,
	}
	if m.waitProbe != nil {
		p.WaitSamples = append([]float64(nil), m.waitProbe.Values()...)
	}
	return p
}

// Inject schedules the request's arrival at the source module, one network
// hop after sendAt. The caller owns the Request's identity fields (ID, Send,
// Deadline, DropModule). On a Driver it is safe from any goroutine.
func (c *Cluster) Inject(req *Request, sendAt time.Duration) {
	src := c.modules[c.cfg.Spec.Source()]
	c.ls.inject(src.idx, sendAt+c.cfg.NetDelay,
		laneEvent{name: "arrive", op: opReceive, m: src, req: req})
}

// scheduleEvent registers ev on module dst's event lane. src is the module
// whose event is executing (-1 for control context); cross-lane schedules
// travel through the ordered mailbox by value, so the typed hot-path ops
// allocate nothing.
func (c *Cluster) scheduleEvent(src, dst int, at time.Duration, ev laneEvent) {
	c.ls.scheduleLaneEvent(src, dst, at, ev)
}

// control brackets a serial control-context callback (sync, scaling,
// injected failures). Terminations decided here defer like any other and
// commit at the barrier hook that runs after the control event (or at an
// explicit ControlFlush); meanwhile every module sees them as pending.
func (c *Cluster) control(fn func()) {
	c.inControl = true
	fn()
	c.inControl = false
}

// owns reports whether this cluster replica executes module k (always true
// with zero peers).
func (c *Cluster) owns(k int) bool { return c.topo.owns(k) }

// fail aborts the run from control context, poisoning the transport so peer
// groups unblock.
func (c *Cluster) fail(err error) { c.shx.fail(err) }

// peerModule checks a module index that arrived from a peer group, so a
// corrupt or hostile message aborts the run instead of indexing past the
// module table.
func (c *Cluster) peerModule(mod, group int32, what string) (int, error) {
	if mod < 0 || int(mod) >= len(c.modules) {
		return 0, fmt.Errorf("sched: %s from group %d names module %d, out of range [0,%d)", what, group, mod, len(c.modules))
	}
	return int(mod), nil
}

// ControlFlush runs the barrier commit from inside a control callback: call
// it after any state mutation whose effects (dropped or completed requests)
// the same callback subsequently reads, e.g. a ticker predicate checking for
// drained requests right after a sync tick. With peers it is an exchange
// like any other (an all-empty one is a valid empty-drain round). Errors
// abort the run via the executor.
func (c *Cluster) ControlFlush() {
	if err := c.barrier(); err != nil {
		c.fail(err)
	}
}

// exchangeBarrier is the barrier commit with peers: all-gather this group's
// cross-group posts, pending termination intents and buffered charges;
// deliver the incoming posts in mailbox order; apply the merged charges
// (integer sums — order-free) and commit the merged intents in the global
// deterministic order.
func (c *Cluster) exchangeBarrier() error {
	msg := BarrierMsg{
		Group:   int32(c.topo.Group),
		Posts:   c.shx.takeWirePosts(),
		Intents: c.bridge.encodeIntents(),
		Charges: c.encodeCharges(),
		Merges:  c.encodeMergeResets(),
	}
	all, err := c.tr.Barrier(msg)
	if err != nil {
		return err
	}
	for i := range all {
		bm := &all[i]
		if int(bm.Group) == c.topo.Group {
			continue
		}
		for _, wp := range bm.Posts {
			dst, err := c.peerModule(wp.Dst, bm.Group, "post")
			if err != nil {
				return err
			}
			if !c.owns(dst) {
				continue
			}
			req := c.resolve(wp.Req)
			if req == nil {
				return fmt.Errorf("sched: post for unknown request %d from group %d", wp.Req, bm.Group)
			}
			c.shx.stagePost(post{src: int(wp.Src), dst: dst, at: wp.At,
				ev: laneEvent{name: "hop", op: opReceive, m: c.modules[dst], req: req}})
		}
	}
	c.shx.deliverStaged()
	for i := range all {
		for _, wc := range all[i].Charges {
			req := c.resolve(wc.Req)
			if req == nil {
				return fmt.Errorf("sched: charge for unknown request %d from group %d", wc.Req, all[i].Group)
			}
			req.charge(wc.GPU, wc.Q, wc.W, wc.D)
		}
		if int(all[i].Group) == c.topo.Group {
			continue // this replica armed its own resets inline in forward
		}
		for _, wm := range all[i].Merges {
			req := c.resolve(wm.Req)
			if req == nil {
				return fmt.Errorf("sched: merge reset for unknown request %d from group %d", wm.Req, all[i].Group)
			}
			req.resetMerge(int(wm.Expected))
		}
	}
	return c.bridge.commitWire(all)
}

// encodeCharges drains every owned module's charge buffer into wire shape,
// in (module, decision order).
func (c *Cluster) encodeCharges() []WireCharge {
	var out []WireCharge
	for k, m := range c.modules {
		for i := range m.charges {
			ch := &m.charges[i]
			out = append(out, WireCharge{Mod: int32(k), Req: ch.req.ID, GPU: ch.gpu, Q: ch.q, W: ch.w, D: ch.d})
		}
		m.charges = m.charges[:0]
	}
	return out
}

// SyncTick runs one state-synchronization round (§4.1 steps ①-③): every
// module publishes its snapshot, the policy refreshes from the board, and
// priority probes record the outcome. It must run in control context (all
// lanes parked): it reads and writes cross-module state freely.
func (c *Cluster) SyncTick(now time.Duration) {
	c.control(func() {
		// Publication is module-local (each module sorts its own state
		// windows and writes its own board slot), so it fans out across the
		// shards; the policy refresh below stays serial — it reads the
		// whole board and draws from the shared policy stream. In a
		// multi-group topology only owned modules have state to publish;
		// the board exchange below fills in the peers' rows before the
		// (replicated) policy refresh reads the full board.
		c.shx.parallelLanes(func(k int) {
			if c.owns(k) {
				c.modules[k].publish(now, c.board)
			}
		})
		if err := c.exchangeBoard(); err != nil {
			c.fail(err)
			return
		}
		c.pol.OnSync(now, c.board)
		for _, m := range c.modules {
			if c.owns(m.idx) {
				m.probePriority(now, c.board)
			}
		}
	})
}

// exchangeBoard all-gathers the owned board rows so every replica's board —
// and therefore every replica's policy refresh — sees the identical
// cluster-wide state. No-op with zero peers.
func (c *Cluster) exchangeBoard() error {
	if c.tr == nil {
		return nil
	}
	rows := make([]WireBoardRow, 0, (len(c.modules)+c.topo.Groups-1)/c.topo.Groups)
	for k := range c.modules {
		if c.owns(k) {
			rows = append(rows, WireBoardRow{Mod: int32(k), State: c.board.Get(k)})
		}
	}
	all, err := c.tr.Board(BoardMsg{Group: int32(c.topo.Group), Rows: rows})
	if err != nil {
		return err
	}
	for i := range all {
		if int(all[i].Group) == c.topo.Group {
			continue
		}
		for _, r := range all[i].Rows {
			k, err := c.peerModule(r.Mod, all[i].Group, "board row")
			if err != nil {
				return err
			}
			c.board.Publish(k, r.State)
		}
	}
	return nil
}

// ScaleTick runs one scaling-engine round: per-module demand from recent
// input rates, granted proportionally under a TotalGPUs budget. No-op when
// scaling is disabled.
func (c *Cluster) ScaleTick(now time.Duration) {
	if !c.cfg.Scaling.Enabled {
		return
	}
	c.control(func() {
		desired := make([]int, len(c.modules))
		for k, m := range c.modules {
			if c.owns(k) {
				desired[k] = m.desiredWorkers(now)
			}
		}
		if err := c.exchangeScale(desired); err != nil {
			c.fail(err)
			return
		}
		ApplyGPUBudget(desired, c.cfg.Scaling.TotalGPUs, c.cfg.Scaling.MinWorkers)
		for k, m := range c.modules {
			if c.owns(k) {
				m.applyScale(now, desired[k])
			}
		}
	})
}

// exchangeScale all-gathers the owned modules' scaling demands so every
// replica applies the identical GPU-budget split. No-op with zero peers.
func (c *Cluster) exchangeScale(desired []int) error {
	if c.tr == nil {
		return nil
	}
	rows := make([]WireScaleRow, 0, (len(c.modules)+c.topo.Groups-1)/c.topo.Groups)
	for k := range c.modules {
		if c.owns(k) {
			rows = append(rows, WireScaleRow{Mod: int32(k), Desired: int32(desired[k])})
		}
	}
	all, err := c.tr.Scale(ScaleMsg{Group: int32(c.topo.Group), Rows: rows})
	if err != nil {
		return err
	}
	for i := range all {
		if int(all[i].Group) == c.topo.Group {
			continue
		}
		for _, r := range all[i].Rows {
			k, err := c.peerModule(r.Mod, all[i].Group, "scale row")
			if err != nil {
				return err
			}
			desired[k] = int(r.Desired)
		}
	}
	return nil
}

// Crash kills up to count active workers of module k (§2 machine failure),
// returning how many actually died. In a multi-group topology the failure
// event is replicated on every control lane but only the owner's workers
// hold state: non-owners no-op (returning 0) and learn the resulting drops
// at the barrier commit after the event.
func (c *Cluster) Crash(k int, now time.Duration, count int) int {
	if !c.owns(k) {
		return 0
	}
	killed := 0
	c.control(func() { killed = c.modules[k].crash(now, count) })
	return killed
}

// scheduleBatchEnd registers the batch-completion event on the worker's own
// lane.
func (c *Cluster) scheduleBatchEnd(w *worker, at time.Duration) {
	c.scheduleEvent(w.mod.idx, w.mod.idx, at, laneEvent{name: "batch-end", op: opBatchEnd, w: w})
}

// scheduleWarmup wakes a cold-started worker.
func (c *Cluster) scheduleWarmup(w *worker, at time.Duration) {
	c.scheduleEvent(w.mod.idx, w.mod.idx, at, laneEvent{name: "warmup", op: opWarmup, w: w})
}

// barrier is the cluster's one commit point, run by the engine after every
// lane window and every control event (all lanes parked): first the lanes'
// batched per-request accounting merges into the shared Requests, then
// deferred terminations commit — in that order, so host OnDone/OnDrop
// callbacks observe complete sums. With peers the same sequencing runs over
// the all-gathered payloads of every group.
func (c *Cluster) barrier() error {
	if c.tr != nil {
		return c.exchangeBarrier()
	}
	c.flushCharges()
	c.bridge.commit()
	return nil
}

// flushCharges applies every module's buffered charge records in (module,
// decision order) — a deterministic order, and the charges are commutative
// sums anyway. Buffers keep their slabs across windows.
func (c *Cluster) flushCharges() {
	for _, m := range c.modules {
		for i := range m.charges {
			ch := &m.charges[i]
			ch.req.charge(ch.gpu, ch.q, ch.w, ch.d)
		}
		m.charges = m.charges[:0]
	}
}

// retired reports whether module k should treat the request as terminated:
// globally committed, or terminated by module k itself in the current
// window. A termination decided by *another* module inside the current
// window becomes visible at the next barrier; that bounded, fully
// deterministic visibility delay is the ordering contract that lets lanes
// run concurrently.
func (c *Cluster) retired(req *Request, k int) bool {
	if req.Dropped || req.Finished {
		return true
	}
	if c.inControl {
		// Every lane is parked, so a termination pending at any module (e.g.
		// a scale-induced drop at one module, seen by a parallel DAG branch
		// at another) is visible to all of them within the control event.
		return c.bridge.seesAny(req)
	}
	return c.bridge.sees(k, req)
}

// drop marks a request dropped at module k. The decision is deferred to the
// next barrier commit, which notifies the host, keeping the shared Request
// untouched while other lanes run (and, with peers, until the decision is
// exchanged).
func (c *Cluster) drop(req *Request, k int, now time.Duration) {
	if c.retired(req, k) {
		return
	}
	c.bridge.add(k, req, now, true)
}

// commitDrop applies a drop decision. The first commit for a request wins;
// later ones are no-ops.
func (c *Cluster) commitDrop(req *Request, k int, now time.Duration) {
	if req.Dropped || req.Finished {
		return
	}
	req.Dropped = true
	req.DropModule = k
	req.DropAt = now
	c.modules[k].drops++
	if c.cfg.OnDrop != nil {
		c.cfg.OnDrop(req, k, now)
	}
}

// forward routes a request leaving module k: split to successors, merge at
// fan-in, or complete at the sink.
func (c *Cluster) forward(req *Request, k int, now time.Duration) {
	mod := c.cfg.Spec.Modules[k]
	if len(mod.Subs) == 0 {
		c.complete(req, k, now)
		return
	}
	arrive := now + c.cfg.NetDelay
	if mod.Exclusive {
		sub := mod.Subs[c.pickBranch(mod)]
		c.resetMerge(req, k, now, 1)
		c.scheduleEvent(k, sub, arrive, laneEvent{name: "hop", op: opReceive, m: c.modules[sub], req: req})
		return
	}
	subs := mod.Subs
	if len(subs) > 1 {
		c.resetMerge(req, k, now, len(subs))
	}
	for _, sub := range subs {
		c.scheduleEvent(k, sub, arrive, laneEvent{name: "hop", op: opReceive, m: c.modules[sub], req: req})
	}
}

// resetMerge arms the request's merge bookkeeping for the next fan-out
// region. With peers the arm also rides the next barrier exchange to the
// peer replicas (see WireMergeReset): the merge module's owner reads
// ExpectedMerge, and only the fan-out owner runs this code.
func (c *Cluster) resetMerge(req *Request, k int, now time.Duration, n int) {
	req.resetMerge(n)
	if c.tr != nil {
		m := c.modules[k]
		m.mergeResets = append(m.mergeResets, WireMergeReset{At: now, Mod: int32(k), Req: req.ID, Expected: int32(n)})
	}
}

// encodeMergeResets drains every module's buffered merge-arms in (module,
// decision order).
func (c *Cluster) encodeMergeResets() []WireMergeReset {
	var out []WireMergeReset
	for _, m := range c.modules {
		out = append(out, m.mergeResets...)
		m.mergeResets = m.mergeResets[:0]
	}
	return out
}

// pickBranch selects one successor index for an exclusive fan-out, drawn
// from the fan-out module's own path stream.
func (c *Cluster) pickBranch(mod pipeline.Module) int {
	rng := c.pathRngs[mod.ID]
	if len(mod.BranchProb) == 0 {
		return rng.Intn(len(mod.Subs))
	}
	x := rng.Float64()
	acc := 0.0
	for i, p := range mod.BranchProb {
		acc += p
		if x < acc {
			return i
		}
	}
	return len(mod.Subs) - 1
}

// complete finalizes a request that finished the sink module k. Like drop,
// it defers to the next barrier commit.
func (c *Cluster) complete(req *Request, k int, now time.Duration) {
	if c.retired(req, k) {
		return
	}
	c.bridge.add(k, req, now, false)
}

// commitComplete applies a sink completion (no-op if the request already
// terminated).
func (c *Cluster) commitComplete(req *Request, now time.Duration) {
	if req.Dropped || req.Finished {
		return
	}
	req.Finished = true
	req.DoneAt = now
	if c.cfg.OnDone != nil {
		c.cfg.OnDone(req, now)
	}
}
