package sched

import (
	"fmt"
	"math"
	"sync"
	"time"

	"pard/internal/depq"
)

// ShardedExecutor executes the scheduling core with its event queue
// partitioned into per-module lanes (one depq-backed queue per module) plus a
// serial control lane for cluster-wide events (state sync, scaling, injected
// failures). Independent modules of a pipeline advance concurrently inside
// lookahead windows; a low-watermark barrier on virtual time keeps the
// execution deterministic for ANY shard count:
//
//   - Within a lane, events fire in (timestamp, insertion-order) order.
//   - Lanes advance together through windows [low, high): low is the minimum
//     pending lane timestamp across all lanes (the low watermark), high is
//     low + lookahead, clamped to the next control event. Cross-lane
//     messages travel at least one network hop (lookahead = the per-hop
//     delay), so nothing produced inside a window can be consumed inside it:
//     the lanes of a window are independent and their relative execution
//     order — and therefore the shard count and thread schedule — is
//     unobservable.
//   - Cross-lane events (batch hand-off, DAG fan-out/merge hops) are posted
//     to per-lane outboxes and exchanged at the window barrier through a
//     deterministic ordered mailbox keyed by (virtual time, source module,
//     sequence).
//   - Control events run serially at the barrier with every lane parked, and
//     take precedence over lane events at equal timestamps.
//
// With a zero lookahead the window degenerates to a single timestamp and
// same-time cross-lane messages are exchanged through fixpoint sub-rounds;
// execution stays correct and deterministic, merely without parallelism.
//
// A simulation builds the executor, schedules its initial events and calls
// Run; a live host drives it in increments through a Driver (RunUntil).
//
// The barrier hook is the engine's one commit point: it runs after every
// lane window and after every control event, with every lane parked.
//
// With a multi-group Topology (NewShardedExecutorTopo), the executor is one
// lane group of a replicated cluster: it executes only the lanes it owns,
// exchanges its low watermark and cross-group mailbox posts through the
// Transport each iteration, and verifies control-lane lockstep against its
// peers — see transport.go for the distribution model. A single group is
// the same executor with zero peers: it owns every lane and skips the
// exchanges.
type ShardedExecutor struct {
	lookahead time.Duration
	shards    int

	lanes []*laneState
	ctrl  *laneState

	frontier time.Duration
	running  bool
	fired    uint64

	barrierFn func() error

	pool *shardPool

	// Lane-group state (zero topology and nil transport with zero peers).
	topo      Topology
	tr        Transport
	err       error      // first transport/lockstep error; aborts the run
	wireOut   []WirePost // this window's cross-group posts (handed off per barrier)
	staged    []post     // this barrier's owned + decoded peer posts
	laneFired uint64
}

// laneEvent is one scheduled event inside a lane. The hot-path kinds —
// request arrivals and hops, batch completions, worker warmups — are
// encoded as typed ops dispatched by fire, so scheduling one moves a plain
// value through the lane queues and mailboxes with no per-event closure
// allocation; host and control events (sync ticks, failures) keep the
// closure form.
type laneEvent struct {
	name string
	fn   func(now time.Duration) // opFn only
	op   laneOp
	m    *module  // opReceive destination
	w    *worker  // opBatchEnd / opWarmup worker
	req  *Request // opReceive payload
}

// laneOp tags a laneEvent's dispatch kind.
type laneOp uint8

const (
	opFn       laneOp = iota // fire the fn closure
	opReceive                // m.receive(req, now): arrivals and cross-module hops
	opBatchEnd               // w.batchEnd(now)
	opWarmup                 // w.pump(now): cold-start wakeup
)

// fire dispatches the event at virtual time now.
func (ev *laneEvent) fire(now time.Duration) {
	switch ev.op {
	case opReceive:
		ev.m.receive(ev.req, now)
	case opBatchEnd:
		ev.w.batchEnd(now)
	case opWarmup:
		ev.w.pump(now)
	default:
		ev.fn(now)
	}
}

// laneState is one event lane: a min-ordered queue (keyed by timestamp,
// FIFO-tied by insertion) plus the lane-local clock and this window's outbox.
type laneState struct {
	id    int
	q     *depq.DEPQ[laneEvent]
	now   time.Duration
	fired uint64

	// outbox collects cross-lane sends made while this lane executes; it is
	// flushed into the mailbox at the window barrier.
	outbox []post
}

func newLaneState(id int) *laneState {
	return &laneState{id: id, q: depq.New[laneEvent]()}
}

// push inserts an event; insertion order breaks timestamp ties (depq keeps
// FIFO order among equal keys).
func (l *laneState) push(at time.Duration, ev laneEvent) {
	l.q.Push(ev, int64(at))
}

// peek returns the next pending timestamp.
func (l *laneState) peek() (time.Duration, bool) {
	_, key, ok := l.q.PeekMin()
	return time.Duration(key), ok
}

// run fires every pending event with timestamp < hi — or == lo, which
// guarantees progress when the lookahead is zero — including events the
// callbacks push onto this same lane.
func (l *laneState) run(lo, hi time.Duration) {
	for {
		ev, key, ok := l.q.PeekMin()
		if !ok {
			return
		}
		at := time.Duration(key)
		if at >= hi && at != lo {
			return
		}
		l.q.PopMin()
		if at > l.now {
			l.now = at
		}
		l.fired++
		ev.fire(l.now)
	}
}

// NewShardedExecutor builds an executor with one lane per module and up to
// shards concurrent workers (clamped to [1, lanes]). lookahead is the
// minimum cross-lane event delay — the cluster's per-hop network delay — and
// bounds how far lanes may run ahead of the low watermark.
func NewShardedExecutor(lanes, shards int, lookahead time.Duration) *ShardedExecutor {
	if lanes < 1 {
		panic(fmt.Sprintf("sched: sharded executor needs >= 1 lanes, got %d", lanes))
	}
	if shards < 1 {
		shards = 1
	}
	if shards > lanes {
		shards = lanes
	}
	if lookahead < 0 {
		lookahead = 0
	}
	x := &ShardedExecutor{
		lookahead: lookahead,
		shards:    shards,
		ctrl:      newLaneState(-1),
	}
	for i := 0; i < lanes; i++ {
		x.lanes = append(x.lanes, newLaneState(i))
	}
	return x
}

// NewShardedExecutorTopo builds an executor running one lane group of a
// multi-group topology over the given transport. A single-group (zero)
// topology has no peers: the transport may be nil, and the executor is
// NewShardedExecutor's.
func NewShardedExecutorTopo(lanes, shards int, lookahead time.Duration, topo Topology, tr Transport) (*ShardedExecutor, error) {
	if err := topo.validate(); err != nil {
		return nil, err
	}
	if !topo.single() && tr == nil {
		return nil, fmt.Errorf("sched: %d lane groups need a transport", topo.Groups)
	}
	x := NewShardedExecutor(lanes, shards, lookahead)
	x.topo = topo
	if !topo.single() {
		x.tr = tr
	}
	return x, nil
}

// Err returns the error that aborted the run, if any: a transport failure,
// a control-lane lockstep divergence, or a non-wire event reaching the
// group boundary. Multi-group hosts must check it after Run.
func (x *ShardedExecutor) Err() error { return x.err }

// fail records the first fatal error and poisons the transport so peer
// groups abort instead of hanging at their next rendezvous.
func (x *ShardedExecutor) fail(err error) {
	if err == nil || x.err != nil {
		return
	}
	x.err = err
	if x.tr != nil {
		x.tr.Abort(err)
	}
}

// Lanes returns the lane count (the cluster's module count).
func (x *ShardedExecutor) Lanes() int { return len(x.lanes) }

// Now returns the executor's committed virtual time (the barrier frontier).
// Lane callbacks should use the time passed to them, which may run ahead of
// the frontier inside a window.
func (x *ShardedExecutor) Now() time.Duration { return x.frontier }

// Fired returns the number of events dispatched. The count is deterministic:
// it is identical for every shard count.
func (x *ShardedExecutor) Fired() uint64 { return x.fired }

// Schedule registers a control event: it runs serially at the barrier with
// all lanes parked, so the callback may touch cross-module state (boards,
// policy, worker pools) freely. Hosts use it for sync ticks, scaling ticks
// and injected failures. Must not be called from lane callbacks.
func (x *ShardedExecutor) Schedule(at time.Duration, name string, fn func(now time.Duration)) {
	if at < x.frontier {
		at = x.frontier
	}
	x.ctrl.push(at, laneEvent{name: name, fn: fn})
}

// Ticker repeatedly schedules fn on the control lane every period until the
// predicate returns false. The first tick fires at Now()+period.
func (x *ShardedExecutor) Ticker(period time.Duration, name string, fn func(now time.Duration) bool) {
	if period <= 0 {
		panic(fmt.Sprintf("sched: Ticker period must be positive, got %v", period))
	}
	var tick func(time.Duration)
	tick = func(now time.Duration) {
		if !fn(now) {
			return
		}
		x.Schedule(now+period, name, tick)
	}
	x.Schedule(x.frontier+period, name, tick)
}

// inject schedules a host event on lane dst (before Run, or from control
// context).
func (x *ShardedExecutor) inject(dst int, at time.Duration, ev laneEvent) {
	x.scheduleLaneEvent(-1, dst, at, ev)
}

// scheduleLaneEvent registers ev on lane dst at absolute time at. src
// identifies the calling context: the executing lane, or -1 for
// host/control/barrier context (every lane parked). Same-lane and
// control-context schedules insert directly; cross-lane schedules from a
// running lane are posted to the source lane's outbox and delivered at the
// window barrier in mailbox order. This implements the cluster-facing
// laneScheduler interface; the event travels by value the whole way, so
// the steady-state hot path allocates nothing.
func (x *ShardedExecutor) scheduleLaneEvent(src, dst int, at time.Duration, ev laneEvent) {
	l := x.lanes[dst]
	if src < 0 || !x.running {
		// Host/control context is replicated across lane groups: every group
		// executes this schedule, so a group only enqueues events for lanes
		// it owns — the owner's identical copy is the one that runs.
		if !x.topo.owns(dst) {
			return
		}
		if at < x.frontier {
			at = x.frontier
		}
		l.push(at, ev)
		return
	}
	from := x.lanes[src]
	if at < from.now {
		at = from.now
	}
	if src == dst {
		l.push(at, ev)
		return
	}
	from.outbox = append(from.outbox, post{src: src, dst: dst, at: at, ev: ev})
}

// setBarrierHook registers fn as the engine's commit point: it runs after
// every lane window (once the mailbox is flushed) and after every control
// event, with all lanes parked. The cluster uses it to commit deferred
// drop/completion intents in deterministic order; with peers the hook also
// performs the barrier exchange, and its error aborts the run.
func (x *ShardedExecutor) setBarrierHook(fn func() error) { x.barrierFn = fn }

// commit runs the barrier hook unless the run has already failed.
func (x *ShardedExecutor) commit() {
	if x.barrierFn != nil && x.err == nil {
		if err := x.barrierFn(); err != nil {
			x.fail(err)
		}
	}
}

// engine returns the executor itself: the lane engine a Cluster runs on.
func (x *ShardedExecutor) engine() *ShardedExecutor { return x }

// takeWirePosts hands off this window's cross-group posts. Ownership moves
// to the caller (the slice goes on the wire or into a peer's hands), so the
// buffer is not recycled.
func (x *ShardedExecutor) takeWirePosts() []WirePost {
	out := x.wireOut
	x.wireOut = nil
	return out
}

// stagePost adds one post (local, or decoded from a peer group) to the
// barrier's pending delivery set.
func (x *ShardedExecutor) stagePost(p post) { x.staged = append(x.staged, p) }

// deliverStaged pushes the staged posts into their destination lanes in
// mailbox order: (virtual time, source module, send sequence). Insertion
// order assigns the destination-lane FIFO tiebreak, so delivery — and
// everything downstream of it — is deterministic. Equal (time, source) runs
// never span groups — a source lane lives in exactly one group — so the
// stable sort reproduces the exact single-process delivery order regardless
// of group count.
func (x *ShardedExecutor) deliverStaged() {
	if len(x.staged) == 0 {
		return
	}
	sortPosts(x.staged)
	for i := range x.staged {
		p := &x.staged[i]
		x.lanes[p.dst].push(p.at, p.ev)
	}
	x.staged = x.staged[:0]
}

// encodeWirePost converts one cross-group post to its wire shape. Only the
// typed receive op may cross the boundary; a closure reaching the wire is a
// programming error and aborts the run loudly.
func encodeWirePost(p *post) (WirePost, error) {
	if p.ev.op != opReceive || p.ev.fn != nil || p.ev.req == nil {
		return WirePost{}, fmt.Errorf("sched: event %q (op %d) cannot cross lane groups: only typed receive events are wire-shaped", p.ev.name, p.ev.op)
	}
	return WirePost{At: p.at, Src: int32(p.src), Dst: int32(p.dst), Req: p.ev.req.ID}, nil
}

// minLane returns the low watermark: the earliest pending lane timestamp.
func (x *ShardedExecutor) minLane() (time.Duration, bool) {
	var min time.Duration
	ok := false
	for _, l := range x.lanes {
		if at, has := l.peek(); has && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}

// runControl fires every control event at exactly time t, including ones the
// callbacks schedule at t. The barrier hook commits after each event, so the
// terminations it decided are visible — on every replica, in the same order —
// before the next control event or lane window runs.
func (x *ShardedExecutor) runControl(t time.Duration) {
	for {
		_, key, ok := x.ctrl.q.PeekMin()
		if !ok || time.Duration(key) != t {
			return
		}
		ev, _, _ := x.ctrl.q.PopMin()
		if t > x.ctrl.now {
			x.ctrl.now = t
		}
		x.ctrl.fired++
		ev.fire(t)
		x.commit()
		if x.err != nil {
			return
		}
	}
}

// runWindow executes every lane over [lo, hi), fanned out across the shard
// pool. Lanes touch disjoint state inside a window (cross-lane effects are
// mailbox- or barrier-mediated), so the assignment of lanes to shards and
// the thread schedule cannot change the outcome. Windows with work in a
// single lane — the common case in sparse phases — run inline on the
// coordinator, skipping the pool wakeup entirely.
func (x *ShardedExecutor) runWindow(lo, hi time.Duration) {
	if x.shards <= 1 {
		for _, l := range x.lanes {
			l.run(lo, hi)
		}
		return
	}
	var only *laneState
	active := 0
	for _, l := range x.lanes {
		if at, ok := l.peek(); ok && (at < hi || at == lo) {
			if active++; active > 1 {
				break
			}
			only = l
		}
	}
	switch active {
	case 0:
		return
	case 1:
		only.run(lo, hi)
	default:
		x.pool.run(lo, hi)
	}
}

// flushOutboxes gathers every lane's outbox in (source module, send order):
// posts to owned lanes are staged for delivery in mailbox order, posts to a
// peer's lanes are encoded for the wire. With no peers the staged posts are
// delivered at once; otherwise the barrier hook delivers them after merging
// in the peers' posts from the exchange.
func (x *ShardedExecutor) flushOutboxes() {
	for _, l := range x.lanes {
		for i := range l.outbox {
			p := &l.outbox[i]
			if x.topo.owns(p.dst) {
				x.staged = append(x.staged, *p)
				continue
			}
			wp, err := encodeWirePost(p)
			if err != nil {
				x.fail(err)
				return
			}
			x.wireOut = append(x.wireOut, wp)
		}
		l.outbox = l.outbox[:0]
	}
	if x.tr == nil {
		x.deliverStaged()
	}
}

// stepExchange all-reduces the per-iteration step state across lane groups:
// it verifies the replicated control lane is in lockstep (aborting on
// divergence — never drifting silently) and returns the global low
// watermark over every group's owned lanes.
func (x *ShardedExecutor) stepExchange(tCtrl time.Duration, okC bool, tLane time.Duration, okL bool) (time.Duration, bool) {
	all, err := x.tr.Step(StepMsg{
		Group:  int32(x.topo.Group),
		CtrlAt: tCtrl, CtrlOK: okC,
		LaneAt: tLane, LaneOK: okL,
	})
	if err != nil {
		x.fail(err)
		return 0, false
	}
	gLane, gOK := time.Duration(0), false
	for _, m := range all {
		if m.CtrlOK != okC || (okC && m.CtrlAt != tCtrl) {
			x.fail(fmt.Errorf("sched: control-lane divergence: group %d next control (%v,%t), group %d (%v,%t)",
				x.topo.Group, tCtrl, okC, m.Group, m.CtrlAt, m.CtrlOK))
			return 0, false
		}
		if m.LaneOK && (!gOK || m.LaneAt < gLane) {
			gLane, gOK = m.LaneAt, true
		}
	}
	return gLane, gOK
}

// Run drives the event loop to completion: alternating control rounds and
// barrier-synchronized lane windows until every queue drains. It returns the
// final virtual time. Multi-group hosts must check Err afterwards: a
// transport failure or lockstep divergence aborts the loop cleanly.
func (x *ShardedExecutor) Run() time.Duration { return x.RunUntil(math.MaxInt64) }

// RunUntil is Run bounded at t: it opens only control rounds and lane
// windows whose low watermark is <= t, then returns with everything later
// still queued, so a later call resumes exactly where this one stopped.
// Events a host schedules in between join the queues as if they had been
// there from the start, provided they land at or after the frontier: with
// lookahead = the per-hop delay, a request injected at host time >= t
// arrives at or after every window this call could open, so driving the
// executor in increments builds the same windows as one Run. Must not be
// called from inside a callback.
func (x *ShardedExecutor) RunUntil(t time.Duration) time.Duration {
	if x.running {
		panic("sched: ShardedExecutor run re-entered from a callback")
	}
	x.running = true
	if x.shards > 1 {
		x.pool = newShardPool(x.lanes, x.shards)
		defer func() { x.pool.stop(); x.pool = nil }()
	}
	defer func() {
		x.running = false
		lane := uint64(0)
		for _, l := range x.lanes {
			lane += l.fired
		}
		x.laneFired = lane
		x.fired = x.ctrl.fired + lane
	}()
	for x.err == nil {
		tCtrl, okC := x.ctrl.peek()
		tLane, okL := x.minLane()
		if x.tr != nil {
			// The watermark is a global minimum over every group's owned
			// lanes; the control queues must agree exactly (they are
			// replicated), which stepExchange verifies.
			tLane, okL = x.stepExchange(tCtrl, okC, tLane, okL)
			if x.err != nil {
				break
			}
		}
		switch {
		case !okC && !okL:
			return x.frontier
		case okC && (!okL || tCtrl <= tLane):
			// Control precedes lane events at equal timestamps.
			if tCtrl > t {
				return x.frontier
			}
			x.frontier = tCtrl
			x.runControl(tCtrl)
		default:
			if tLane > t {
				return x.frontier
			}
			hi := tLane + x.lookahead
			if okC && tCtrl < hi {
				hi = tCtrl
			}
			if hi < tLane {
				hi = tLane // zero lookahead: the window is the watermark itself
			}
			x.runWindow(tLane, hi)
			x.flushOutboxes()
			x.commit()
			if hi > x.frontier {
				x.frontier = hi
			}
		}
	}
	return x.frontier
}

// next returns the earliest pending timestamp over the control lane and
// every lane: the low watermark the next RunUntil would open.
func (x *ShardedExecutor) next() (time.Duration, bool) {
	t, ok := x.ctrl.peek()
	if l, okL := x.minLane(); okL && (!ok || l < t) {
		t, ok = l, true
	}
	return t, ok
}

// FiredControl returns the replicated control-lane event count.
func (x *ShardedExecutor) FiredControl() uint64 { return x.ctrl.fired }

// FiredLanes returns the event count of this executor's (owned) lanes.
func (x *ShardedExecutor) FiredLanes() uint64 { return x.laneFired }

// parallelLanes runs fn(lane) for every lane, fanned out across the shard
// pool when one is live (control/barrier context between windows), inline
// otherwise. fn must touch only lane-local state — the cluster uses this to
// fan out the sync tick's per-module state publication, whose percentile
// sorts are the dominant serial cost of a sync round.
func (x *ShardedExecutor) parallelLanes(fn func(lane int)) {
	if x.pool == nil {
		for i := range x.lanes {
			fn(i)
		}
		return
	}
	x.pool.each(fn)
}

// shardPool is a set of persistent worker goroutines, one per shard, each
// owning a static stripe of lanes (lane i belongs to shard i mod S). Workers
// park between windows; the coordinator wakes them with a job — a lane
// window to execute or a per-lane function — and waits for all stripes to
// finish.
type shardPool struct {
	lanes  []*laneState
	shards int
	start  []chan shardJob
	wg     sync.WaitGroup
}

type shardJob struct {
	lo, hi time.Duration
	each   func(lane int) // when set, run this instead of the window
}

func newShardPool(lanes []*laneState, shards int) *shardPool {
	p := &shardPool{lanes: lanes, shards: shards}
	for s := 0; s < shards; s++ {
		ch := make(chan shardJob)
		p.start = append(p.start, ch)
		go func(s int, ch chan shardJob) {
			for j := range ch {
				for i := s; i < len(p.lanes); i += p.shards {
					if j.each != nil {
						j.each(i)
					} else {
						p.lanes[i].run(j.lo, j.hi)
					}
				}
				p.wg.Done()
			}
		}(s, ch)
	}
	return p
}

// run executes one window across all shards and blocks until the barrier.
func (p *shardPool) run(lo, hi time.Duration) {
	p.dispatch(shardJob{lo: lo, hi: hi})
}

// each runs fn over every lane across the shards and blocks until done.
func (p *shardPool) each(fn func(lane int)) {
	p.dispatch(shardJob{each: fn})
}

func (p *shardPool) dispatch(j shardJob) {
	p.wg.Add(p.shards)
	for _, ch := range p.start {
		ch <- j
	}
	p.wg.Wait()
}

// stop terminates the worker goroutines.
func (p *shardPool) stop() {
	for _, ch := range p.start {
		close(ch)
	}
}
