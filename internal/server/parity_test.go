package server

import (
	"fmt"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// TestVirtualWallClockParity proves the central claim of the shared
// scheduling core: driving the *same* DAG workload through the
// discrete-event simulator (the lane engine run to completion) and through
// the live server shell (the same lane engine advanced by wakes of an
// injected fake wall clock) produces *identical* per-request outcomes —
// every drop at the same module, every completion at the same virtual
// instant — and identical per-sync priority decisions (load factor and
// HBF/LBF mode). Both sides commit drops and completions at the same
// window barriers: with a 1 ms hop as the lookahead, a request submitted
// at t arrives past every window the server has opened by t. The
// simulator runs at one shard and at one shard per module (the lane
// engine's output does not depend on the shard count).
func TestVirtualWallClockParity(t *testing.T) {
	for _, shards := range []int{1, 5} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { clockParity(t, shards) })
	}
}

func clockParity(t *testing.T, shards int) {
	const (
		seed = 9
		sync = 250 * time.Millisecond
		net  = time.Millisecond
	)
	spec := pipeline.DA()
	workers := []int{2, 2, 2, 2, 2}
	tr := trace.MustGenerate(trace.Config{
		Kind:     trace.Tweet,
		Duration: 40 * time.Second,
		PeakRate: 500,
		Seed:     5,
	})

	// Side A: the simulator with its defaults.
	res, err := simgpu.Run(simgpu.Config{
		Spec:         spec,
		Shards:       shards,
		PolicyName:   "pard",
		Trace:        tr,
		Seed:         seed,
		SyncPeriod:   sync,
		FixedWorkers: workers,
		Probes:       simgpu.ProbeConfig{LoadFactor: true},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Side B: the live server shell on a fake wall clock, replaying the
	// same arrival sequence. Config mirrors the simulator's defaults
	// (1 ms net hop, 5% execution jitter) and the same seed, so the shared
	// core sees bit-identical inputs.
	man := sched.NewManualExecutor()
	srv, err := New(Config{
		Spec:       pipeline.DA(),
		PolicyName: "pard",
		Workers:    workers,
		SyncPeriod: sync,
		NetDelay:   net,
		JitterPct:  0.05,
		Seed:       seed,
		Probes:     sched.ProbeConfig{LoadFactor: true},
		Exec:       man,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	chans := make([]<-chan Response, 0, tr.Len())
	for _, at := range tr.Arrivals {
		man.RunUntil(at)
		chans = append(chans, srv.Submit())
	}
	// Step virtual time forward until every response resolved.
	resps := make([]Response, len(chans))
	next := 0
	for deadline := man.Now(); next < len(chans); deadline += sync {
		man.RunUntil(deadline)
		for ; next < len(chans); next++ {
			select {
			case r := <-chans[next]:
				resps[next] = r
			default:
				goto stepped
			}
		}
	stepped:
		if deadline > tr.Duration+time.Minute {
			t.Fatalf("live shell stalled: %d/%d responses after %v", next, len(chans), deadline)
		}
	}
	// Tick past the simulator's drain point so the live mode series covers
	// at least as many syncs as the simulator recorded.
	man.RunUntil(man.Now() + 4*sync)
	srv.Stop()

	// Per-request decisions: outcome, drop site and timing must all match.
	recs := res.Collector.Records()
	if len(recs) != len(resps) {
		t.Fatalf("request counts differ: sim %d, live %d", len(recs), len(resps))
	}
	drops := 0
	for i, rec := range recs {
		want := Response{ID: uint64(i), LatencyMS: float64((rec.Done - rec.Send).Microseconds()) / 1000}
		switch rec.Outcome.String() {
		case "good":
			want.Outcome = OutcomeGood
		case "late":
			want.Outcome = OutcomeLate
		case "dropped":
			want.Outcome = OutcomeDropped
			want.DropModule = rec.DropModule
			drops++
		}
		if resps[i] != want {
			t.Fatalf("request %d diverged: sim %+v, live %+v", i, want, resps[i])
		}
	}
	if drops == 0 {
		t.Fatal("workload produced no drops; parity test is vacuous")
	}

	// Per-sync priority decisions at the source module: the simulator's
	// series must be a prefix of the live one (the live shell keeps ticking
	// until Stop, the simulator stops at drain).
	live := srv.cl.Probes(spec.Source())
	if res.ModeSeries.Len() == 0 || live.Mode.Len() < res.ModeSeries.Len() {
		t.Fatalf("mode series too short: sim %d, live %d", res.ModeSeries.Len(), live.Mode.Len())
	}
	for i := range res.ModeSeries.V {
		if res.ModeSeries.V[i] != live.Mode.V[i] || res.ModeSeries.T[i] != live.Mode.T[i] {
			t.Fatalf("priority mode diverged at sync %d: sim (%v,%v), live (%v,%v)",
				i, res.ModeSeries.T[i], res.ModeSeries.V[i], live.Mode.T[i], live.Mode.V[i])
		}
		if res.LoadFactor.V[i] != live.Load.V[i] {
			t.Fatalf("load factor diverged at sync %d: sim %v, live %v",
				i, res.LoadFactor.V[i], live.Load.V[i])
		}
	}
}
