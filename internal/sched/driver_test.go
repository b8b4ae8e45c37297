package sched

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
)

// engineTrace is what a lane engine did: per-lane firing logs (the last one
// is the control lane's) and, at every window barrier, how many events each
// log held — so equal traces mean equal windows, not just equal orders.
type engineTrace struct {
	logs     [][]string
	barriers []string
	fired    uint64
}

// cascadeWorkload installs the barrier probe and returns the constructor of
// seed events for lane 0. Each seed cascades across the lanes in steps that
// are multiples of 10 for three generations.
func cascadeWorkload(lanes int, sched func(src, dst int, at time.Duration, ev laneEvent), hook func(func() error), tr *engineTrace) func(id int) laneEvent {
	tr.logs = make([][]string, lanes+1)
	hook(func() error {
		n := make([]int, len(tr.logs))
		for i, l := range tr.logs {
			n[i] = len(l)
		}
		tr.barriers = append(tr.barriers, fmt.Sprint(n))
		return nil
	})
	var cascade func(id, lane, gen int) laneEvent
	cascade = func(id, lane, gen int) laneEvent {
		return laneEvent{name: "c", fn: func(now time.Duration) {
			tr.logs[lane] = append(tr.logs[lane], fmt.Sprintf("r%d.g%d@%v", id, gen, now))
			if gen == 3 {
				return
			}
			sched(lane, (lane+1)%lanes, now+30, cascade(id, (lane+1)%lanes, gen+1))
			sched(lane, (lane+2)%lanes, now+50, cascade(id, (lane+2)%lanes, gen+1))
			sched(lane, lane, now+20, laneEvent{name: "self", fn: func(now time.Duration) {
				tr.logs[lane] = append(tr.logs[lane], fmt.Sprintf("r%d.self%d@%v", id, gen, now))
			}})
		}}
	}
	return func(id int) laneEvent { return cascade(id, 0, 0) }
}

// tickLog returns a control ticker callback logging into the control log.
func tickLog(tr *engineTrace, n int) func(time.Duration) bool {
	return func(now time.Duration) bool {
		c := len(tr.logs) - 1
		tr.logs[c] = append(tr.logs[c], fmt.Sprintf("tick@%v", now))
		return len(tr.logs[c]) < n
	}
}

const (
	cascadeLanes = 4
	cascadeLook  = 10
	cascadeSeeds = 40
	seedGap      = 73 // not a multiple of 10: seeds never tie with cascades
)

// simCascade runs the workload on a ShardedExecutor with every seed
// scheduled up front, the way the simulator injects a trace.
func simCascade(shards int) engineTrace {
	var tr engineTrace
	x := NewShardedExecutor(cascadeLanes, shards, cascadeLook)
	seed := cascadeWorkload(cascadeLanes, x.scheduleLaneEvent, x.setBarrierHook, &tr)
	for i := 0; i < cascadeSeeds; i++ {
		x.inject(0, time.Duration(i*seedGap+cascadeLook), seed(i))
	}
	x.Ticker(100, "tick", tickLog(&tr, 25))
	x.Run()
	tr.fired = x.Fired()
	return tr
}

// TestRunUntilResumes: driving the executor in increments of any size
// builds the same windows, in the same order, as one Run.
func TestRunUntilResumes(t *testing.T) {
	want := simCascade(1)
	if len(want.barriers) < 50 || want.fired == 0 {
		t.Fatalf("workload too small: %d barriers, %d events", len(want.barriers), want.fired)
	}
	for _, step := range []time.Duration{1, 7, 100, 1000} {
		for _, shards := range []int{1, 3} {
			var tr engineTrace
			x := NewShardedExecutor(cascadeLanes, shards, cascadeLook)
			seed := cascadeWorkload(cascadeLanes, x.scheduleLaneEvent, x.setBarrierHook, &tr)
			for i := 0; i < cascadeSeeds; i++ {
				x.inject(0, time.Duration(i*seedGap+cascadeLook), seed(i))
			}
			x.Ticker(100, "tick", tickLog(&tr, 25))
			for t := time.Duration(0); ; t += step {
				x.RunUntil(t)
				if _, ok := x.next(); !ok {
					break
				}
			}
			tr.fired = x.Fired()
			if !reflect.DeepEqual(tr, want) {
				t.Fatalf("step %v, shards %d: incremental run differs from Run", step, shards)
			}
		}
	}
}

// TestDriverMatchesSimulation is invariant 2 at the engine level: a Driver
// woken by a ManualExecutor, with each seed injected by the host only when
// host time reaches its send time, builds exactly the windows the
// simulator builds with every seed queued up front.
func TestDriverMatchesSimulation(t *testing.T) {
	want := simCascade(1)
	var tr engineTrace
	man := NewManualExecutor()
	d := NewDriver(man, cascadeLanes, cascadeLook)
	seed := cascadeWorkload(cascadeLanes, d.scheduleLaneEvent, d.x.setBarrierHook, &tr)
	d.Ticker(100, "tick", tickLog(&tr, 25))
	for i := 0; i < cascadeSeeds; i++ {
		send := time.Duration(i * seedGap)
		man.RunUntil(send)
		d.inject(0, send+cascadeLook, seed(i)) // one hop after the send, as Cluster.Inject
	}
	man.Drain()
	tr.fired = d.x.Fired()
	if !reflect.DeepEqual(tr, want) {
		for i := range want.logs {
			if !reflect.DeepEqual(tr.logs[i], want.logs[i]) {
				t.Errorf("lane %d: live %v\nsim %v", i, tr.logs[i], want.logs[i])
			}
		}
		t.Fatalf("driven engine differs from the simulation (barriers live %d, sim %d)", len(tr.barriers), len(want.barriers))
	}
}

// TestDriverConcurrentInject: submitters on many goroutines inject through
// the inbox while wall-clock wakes run the lanes; every event fires exactly
// once. Run it under -race.
func TestDriverConcurrentInject(t *testing.T) {
	wall := NewTimerExecutor()
	defer wall.Stop()
	d := NewDriver(wall, 2, 0)
	const submitters, each = 8, 50
	var hops atomic.Int64
	all := make(chan struct{})
	hop := laneEvent{name: "hop", fn: func(time.Duration) {
		if hops.Add(1) == submitters*each {
			close(all)
		}
	}}
	arrive := laneEvent{name: "arrive", fn: func(now time.Duration) {
		d.scheduleLaneEvent(0, 1, now+time.Millisecond, hop)
	}}
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				d.inject(0, d.Now(), arrive)
			}
		}()
	}
	wg.Wait()
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d of %d injected events completed", hops.Load(), submitters*each)
	}
}

// TestNewRefusesClockOnlyExecutor: a cluster runs on a lane engine or not
// at all.
func TestNewRefusesClockOnlyExecutor(t *testing.T) {
	cfg := Config{Spec: pipeline.TM(), Lib: profile.DefaultLibrary(), Workers: []int{1, 1, 1}}
	for _, exec := range []Executor{NewManualExecutor(), NewTimerExecutor()} {
		if _, err := New(cfg, exec); err == nil || !strings.Contains(err.Error(), "Driver") {
			t.Fatalf("New(%T) = %v, want a refusal pointing at Driver", exec, err)
		}
		if te, ok := exec.(*TimerExecutor); ok {
			te.Stop()
		}
	}
	if _, err := New(cfg, NewDriver(NewManualExecutor(), 3, 0)); err != nil {
		t.Fatalf("New on a Driver: %v", err)
	}
}
