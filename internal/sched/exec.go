package sched

import (
	"sync"
	"time"
)

// Executor is the clock-and-wake interface the scheduling core runs under.
// The lane engines implement it directly (ShardedExecutor on virtual time,
// Driver on a host's clock); beneath a Driver, an Executor only supplies
// the time and the wakes that advance the lanes: wall-clock timers
// (TimerExecutor) in the live server, an injected clock (ManualExecutor)
// in deterministic tests.
//
// An Executor must never run two callbacks concurrently. ManualExecutor is
// inherently serial; TimerExecutor serializes callbacks through an
// internal run lock.
type Executor interface {
	// Now returns the elapsed time since the start of the run.
	Now() time.Duration
	// Schedule registers fn to run at absolute time at (immediately when at
	// is in the past). fn receives the executor's time at fire.
	Schedule(at time.Duration, name string, fn func(now time.Duration))
}

// TimerExecutor runs callbacks on real wall-clock timers. All callbacks are
// serialized through a run lock, so a Driver's wakes never overlap.
type TimerExecutor struct {
	start time.Time

	run sync.Mutex // serializes callback execution

	mu      sync.Mutex // guards timers + stopped
	stopped bool
	timers  map[*time.Timer]struct{}
	wg      sync.WaitGroup
}

// NewTimerExecutor returns an executor anchored at the current instant.
func NewTimerExecutor() *TimerExecutor {
	return &TimerExecutor{
		start:  time.Now(),
		timers: map[*time.Timer]struct{}{},
	}
}

// Now returns the wall-clock time elapsed since construction.
func (x *TimerExecutor) Now() time.Duration { return time.Since(x.start) }

// Schedule arms a timer firing at time at (immediately when in the past).
// Safe for concurrent use, including from inside callbacks.
func (x *TimerExecutor) Schedule(at time.Duration, name string, fn func(time.Duration)) {
	d := at - x.Now()
	if d < 0 {
		d = 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.stopped {
		return
	}
	x.wg.Add(1)
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		defer x.wg.Done()
		x.mu.Lock()
		delete(x.timers, t)
		stopped := x.stopped
		x.mu.Unlock()
		if stopped {
			return
		}
		x.run.Lock()
		defer x.run.Unlock()
		fn(x.Now())
	})
	x.timers[t] = struct{}{}
}

// Stop cancels all pending timers and waits for in-flight callbacks to
// finish. After Stop, Schedule is a no-op.
func (x *TimerExecutor) Stop() {
	x.mu.Lock()
	if x.stopped {
		x.mu.Unlock()
		return
	}
	x.stopped = true
	for t := range x.timers {
		if t.Stop() {
			// The callback will never run; release its wait slot.
			x.wg.Done()
		}
		delete(x.timers, t)
	}
	x.mu.Unlock()
	x.wg.Wait()
}

// ManualExecutor is a deterministic executor with an injected clock: time
// advances only when the caller steps it, and due callbacks fire in
// (timestamp, schedule-order) order — the control lane of a one-lane
// ShardedExecutor. It stands in for wall-clock time in parity and server
// tests.
type ManualExecutor struct {
	x   *ShardedExecutor
	now time.Duration // the last RunUntil bound
}

// NewManualExecutor returns an executor at t = 0 with no pending events.
func NewManualExecutor() *ManualExecutor {
	return &ManualExecutor{x: NewShardedExecutor(1, 1, 0)}
}

// Now returns the injected current time.
func (m *ManualExecutor) Now() time.Duration { return max(m.now, m.x.Now()) }

// Schedule registers fn at time at (clamped to Now for past times).
func (m *ManualExecutor) Schedule(at time.Duration, name string, fn func(time.Duration)) {
	m.x.Schedule(max(at, m.Now()), name, fn)
}

// RunUntil fires every event due at or before t in order, then advances the
// clock to t. Callbacks may schedule further events, which fire in the same
// pass when due.
func (m *ManualExecutor) RunUntil(t time.Duration) {
	m.x.RunUntil(t)
	m.now = max(m.now, t)
}

// Drain fires all pending events (including ones scheduled while draining)
// and returns the final time.
func (m *ManualExecutor) Drain() time.Duration {
	m.x.Run()
	return m.Now()
}

// Pending returns the number of queued events.
func (m *ManualExecutor) Pending() int { return m.x.ctrl.q.Len() }
