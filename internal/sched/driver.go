package sched

import (
	"fmt"
	"sync"
	"time"
)

// Driver runs a lane engine (a one-shard ShardedExecutor) from an outer
// Executor that supplies only a clock and wakes: wall-clock timers
// (TimerExecutor) in the live server, an injected clock (ManualExecutor) in
// tests. It is how a live host gets the simulator's barrier-commit
// discipline: the outer executor fires one wake at the next pending lane or
// control timestamp, and the wake advances the lanes with RunUntil(now).
//
// Host goroutines (HTTP submitters calling Cluster.Inject, Start arming
// tickers) never touch the lanes directly: their events go into an inbox
// under a short mutex, and the next wake moves them in before it runs. A
// submitter therefore never waits on a running window.
//
// With lookahead = the per-hop delay > 0, a request submitted at t arrives
// at or after every window RunUntil(t) can have opened, so the driven
// engine builds exactly the windows the simulator builds from the same
// arrivals: lane sim ≡ lane live on a ManualExecutor.
type Driver struct {
	outer Executor
	x     *ShardedExecutor
	wake  func(now time.Duration) // d.run, bound once

	mu    sync.Mutex
	inbox []hostEvent     // host events awaiting the next wake
	spare []hostEvent     // the previous inbox, recycled
	wakes []time.Duration // armed wakes not yet fired
}

// hostEvent is one event posted from a host goroutine.
type hostEvent struct {
	lane int // destination lane; -1 = control lane
	at   time.Duration
	ev   laneEvent
}

// NewDriver builds a driver for a cluster of lanes modules whose per-hop
// delay (the engine's lookahead) is lookahead.
func NewDriver(outer Executor, lanes int, lookahead time.Duration) *Driver {
	d := &Driver{outer: outer, x: NewShardedExecutor(lanes, 1, lookahead)}
	d.wake = d.run
	return d
}

// Now returns the outer executor's time.
func (d *Driver) Now() time.Duration { return d.outer.Now() }

// Schedule registers a control event from any goroutine. Control callbacks
// run with every lane parked, as under ShardedExecutor.Schedule.
func (d *Driver) Schedule(at time.Duration, name string, fn func(now time.Duration)) {
	d.post(-1, at, laneEvent{name: name, fn: fn})
}

// Ticker runs fn on the control lane every period until it returns false.
// The first tick fires at Now()+period; later ticks are scheduled from
// control context, exactly as ShardedExecutor.Ticker schedules them.
func (d *Driver) Ticker(period time.Duration, name string, fn func(now time.Duration) bool) {
	if period <= 0 {
		panic(fmt.Sprintf("sched: Ticker period must be positive, got %v", period))
	}
	var tick func(time.Duration)
	tick = func(now time.Duration) {
		if fn(now) {
			d.x.Schedule(now+period, name, tick)
		}
	}
	d.Schedule(d.Now()+period, name, tick)
}

// inject posts a host event onto lane dst (Cluster.Inject).
func (d *Driver) inject(dst int, at time.Duration, ev laneEvent) { d.post(dst, at, ev) }

// The cluster's in-run scheduling and commits go straight to the engine:
// they only happen inside a wake.
func (d *Driver) scheduleLaneEvent(src, dst int, at time.Duration, ev laneEvent) {
	d.x.scheduleLaneEvent(src, dst, at, ev)
}
func (d *Driver) engine() *ShardedExecutor { return d.x }

// post queues a host event and makes sure a wake is armed no later than its
// timestamp.
func (d *Driver) post(lane int, at time.Duration, ev laneEvent) {
	d.mu.Lock()
	d.inbox = append(d.inbox, hostEvent{lane: lane, at: at, ev: ev})
	d.armLocked(at)
	d.mu.Unlock()
}

// armLocked arms a wake at t unless one is already armed at or before t.
// The outer executor cannot cancel, so a later wake is never withdrawn; it
// just finds nothing due when it fires.
func (d *Driver) armLocked(t time.Duration) {
	for _, w := range d.wakes {
		if w <= t {
			return
		}
	}
	d.wakes = append(d.wakes, t)
	d.outer.Schedule(t, "lanes", d.wake)
}

// run is the wake: move the inbox into the engine, advance it to now, and
// arm the next wake.
func (d *Driver) run(now time.Duration) {
	d.mu.Lock()
	armed := d.wakes[:0]
	for _, w := range d.wakes {
		if w > now {
			armed = append(armed, w)
		}
	}
	d.wakes = armed
	in := d.inbox
	d.inbox, d.spare = d.spare[:0], in
	d.mu.Unlock()

	for i := range in {
		e := &in[i]
		if e.lane < 0 {
			d.x.Schedule(e.at, e.ev.name, e.ev.fn)
		} else {
			d.x.scheduleLaneEvent(-1, e.lane, e.at, e.ev)
		}
		*e = hostEvent{} // don't pin requests while recycled
	}
	d.x.RunUntil(now)
	if t, ok := d.x.next(); ok {
		d.mu.Lock()
		d.armLocked(t)
		d.mu.Unlock()
	}
}
