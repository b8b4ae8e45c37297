package main

import (
	"net"
	"sync"
	"time"

	"pard/internal/sched"
)

// Layer wrappers. Each sits on a public seam of one layer, records what
// crosses it, and passes every call through unchanged; wrap_test.go shows
// that a wrapped run's outputs equal an unwrapped run's.

// timedExecutor wraps the executor driving a live server's core and times
// every callback it fires: how many ran, how long each held the core, and
// how late each fired after it was due.
type timedExecutor struct {
	inner sched.Executor
	tr    *tracer // nil: count only

	mu        sync.Mutex
	callbacks int
	busy      time.Duration
	lagsMS    []float64
}

func (x *timedExecutor) Now() time.Duration { return x.inner.Now() }

func (x *timedExecutor) Schedule(at time.Duration, name string, fn func(time.Duration)) {
	due := max(at, x.inner.Now())
	x.inner.Schedule(at, name, func(now time.Duration) {
		start := time.Now()
		fn(now)
		end := time.Now()
		x.mu.Lock()
		x.callbacks++
		x.busy += end.Sub(start)
		x.lagsMS = append(x.lagsMS, ms(now-due))
		x.mu.Unlock()
		if x.tr != nil {
			x.tr.add(-1, "server.callback", start, end, -1)
		}
	})
}

// exchange kinds, in the order countingTransport counts them.
const (
	exStep = iota
	exBarrier
	exBoard
	exScale
	exFinish
	exKinds
)

// countingTransport wraps one lane group's sched.Transport endpoint and
// counts its lockstep exchanges by kind, with the time spent in them (which
// is mostly waiting for the peers). One group's runner owns it, so it needs
// no lock; read it after the run.
type countingTransport struct {
	inner  sched.Transport
	counts [exKinds]int
	wait   time.Duration
}

func (t *countingTransport) timed(kind int, start time.Time) {
	t.counts[kind]++
	t.wait += time.Since(start)
}

func (t *countingTransport) Step(m sched.StepMsg) ([]sched.StepMsg, error) {
	defer t.timed(exStep, time.Now())
	return t.inner.Step(m)
}

func (t *countingTransport) Barrier(m sched.BarrierMsg) ([]sched.BarrierMsg, error) {
	defer t.timed(exBarrier, time.Now())
	return t.inner.Barrier(m)
}

func (t *countingTransport) Board(m sched.BoardMsg) ([]sched.BoardMsg, error) {
	defer t.timed(exBoard, time.Now())
	return t.inner.Board(m)
}

func (t *countingTransport) Scale(m sched.ScaleMsg) ([]sched.ScaleMsg, error) {
	defer t.timed(exScale, time.Now())
	return t.inner.Scale(m)
}

func (t *countingTransport) Finish(m sched.FinishMsg) ([]sched.FinishMsg, error) {
	defer t.timed(exFinish, time.Now())
	return t.inner.Finish(m)
}

func (t *countingTransport) Abort(err error) { t.inner.Abort(err) }

// meteredConn wraps one end of a cross-host simulation connection: every
// Write is one protocol frame, bytes counts what this end wrote, and the
// time spent blocked in Read is time this host waited for its peer.
type meteredConn struct {
	net.Conn

	mu        sync.Mutex
	writes    int
	bytes     int64
	readWait  time.Duration
	writeTime time.Duration
	firstRead time.Time // when the first Read returned: the handshake reply
}

func (c *meteredConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	end := time.Now()
	c.mu.Lock()
	c.readWait += end.Sub(start)
	if c.firstRead.IsZero() {
		c.firstRead = end
	}
	c.mu.Unlock()
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	d := time.Since(start)
	c.mu.Lock()
	c.writes++
	c.bytes += int64(n)
	c.writeTime += d
	c.mu.Unlock()
	return n, err
}

// handshakeDone returns when the first Read returned.
func (c *meteredConn) handshakeDone() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstRead
}
