package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestManualExecutorDeterministicOrder(t *testing.T) {
	x := NewManualExecutor()
	var order []string
	x.Schedule(time.Second, "a", func(time.Duration) { order = append(order, "a") })
	x.Schedule(time.Second, "b", func(time.Duration) {
		order = append(order, "b")
		// Follow-up due in the same pass.
		x.Schedule(time.Second, "c", func(time.Duration) { order = append(order, "c") })
	})
	x.Schedule(500*time.Millisecond, "first", func(time.Duration) { order = append(order, "first") })
	x.RunUntil(750 * time.Millisecond)
	if len(order) != 1 || order[0] != "first" {
		t.Fatalf("after partial run: %v", order)
	}
	if x.Now() != 750*time.Millisecond {
		t.Fatalf("clock = %v", x.Now())
	}
	x.RunUntil(time.Second)
	want := []string{"first", "a", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if x.Pending() != 0 {
		t.Fatalf("%d events left", x.Pending())
	}
}

func TestManualExecutorDrain(t *testing.T) {
	x := NewManualExecutor()
	n := 0
	var chainFn func(time.Duration)
	chainFn = func(now time.Duration) {
		n++
		if n < 5 {
			x.Schedule(now+time.Second, "chain", chainFn)
		}
	}
	x.Schedule(time.Second, "chain", chainFn)
	if end := x.Drain(); end != 5*time.Second {
		t.Fatalf("drain ended at %v", end)
	}
	if n != 5 {
		t.Fatalf("fired %d", n)
	}
}

func TestTimerExecutorRunsAndSerializes(t *testing.T) {
	x := NewTimerExecutor()
	defer x.Stop()
	var mu sync.Mutex
	inside := 0
	maxInside := 0
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		x.Schedule(x.Now()+time.Duration(i%4)*time.Millisecond, "cb", func(time.Duration) {
			mu.Lock()
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
			mu.Lock()
			inside--
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	if maxInside != 1 {
		t.Fatalf("callbacks overlapped: max concurrency %d", maxInside)
	}
}

func TestTimerExecutorStopCancelsPending(t *testing.T) {
	x := NewTimerExecutor()
	var fired atomic.Int32
	x.Schedule(x.Now()+time.Hour, "never", func(time.Duration) { fired.Add(1) })
	x.Stop()
	if fired.Load() != 0 {
		t.Fatal("cancelled timer fired")
	}
	// Schedule after Stop is a no-op, and Stop is idempotent.
	x.Schedule(x.Now(), "late", func(time.Duration) { fired.Add(1) })
	x.Stop()
	time.Sleep(5 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("post-stop schedule fired")
	}
}

// TestTimerExecutorReentrantSchedule exercises Schedule called from inside a
// callback (the core's forward/batch-end path under the live server).
func TestTimerExecutorReentrantSchedule(t *testing.T) {
	x := NewTimerExecutor()
	defer x.Stop()
	done := make(chan struct{})
	x.Schedule(x.Now(), "outer", func(now time.Duration) {
		x.Schedule(now, "inner", func(time.Duration) { close(done) })
	})
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("reentrant schedule never fired")
	}
}
