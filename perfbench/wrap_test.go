package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"pard"
	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/sched"
	"pard/internal/server"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// serveManual drives a TM server on a manual clock at about 330 req/s, past
// its capacity, and returns the server's summary and every reply.
func serveManual(t *testing.T, wrap *timedExecutor) (pard.Summary, []server.Response) {
	t.Helper()
	man := sched.NewManualExecutor()
	var exec sched.Executor = man
	if wrap != nil {
		wrap.inner = man
		exec = wrap
	}
	srv, err := pard.NewServer(pard.ServerConfig{Spec: pipeline.TM(), Seed: 3, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	var replies []<-chan server.Response
	for i := 0; i < 1500; i++ {
		man.RunUntil(time.Duration(i) * 3 * time.Millisecond)
		replies = append(replies, srv.Submit())
	}
	man.RunUntil(10 * time.Second)
	srv.Stop()
	var out []server.Response
	for _, c := range replies {
		out = append(out, <-c)
	}
	return srv.Summary(), out
}

func TestTimedExecutorTransparent(t *testing.T) {
	sum, replies := serveManual(t, nil)
	wrap := &timedExecutor{}
	wsum, wreplies := serveManual(t, wrap)
	if !reflect.DeepEqual(sum, wsum) {
		t.Fatalf("summary through the wrapper differs:\n%+v\n%+v", wsum, sum)
	}
	if !reflect.DeepEqual(replies, wreplies) {
		t.Fatal("replies through the wrapper differ")
	}
	if sum.Dropped == 0 || wrap.callbacks == 0 || len(wrap.lagsMS) != wrap.callbacks {
		t.Fatalf("want drops and counted callbacks: dropped %d, callbacks %d, lags %d",
			sum.Dropped, wrap.callbacks, len(wrap.lagsMS))
	}
}

func smallTwoHostConfig(t *testing.T) simgpu.Config {
	t.Helper()
	tr, err := trace.Generate(trace.Config{Kind: trace.Steady, Duration: time.Second, PeakRate: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return twoHostConfig(tr, 5)
}

func TestCountingTransportTransparent(t *testing.T) {
	cfg := smallTwoHostConfig(t)
	ref, err := simgpu.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, counted, err := runMemGroups(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for g, r := range res {
		if msg := sameResult(r, ref); msg != "" {
			t.Fatalf("group %d over the counted transport differs: %s", g, msg)
		}
	}
	if counted[0].counts != counted[1].counts || counted[0].counts[exBarrier] == 0 || counted[0].counts[exFinish] != 1 {
		t.Fatalf("exchange counts: %v and %v", counted[0].counts, counted[1].counts)
	}
}

func TestMeteredConnTransparent(t *testing.T) {
	cfg := smallTwoHostConfig(t)
	ref, err := simgpu.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runTwoHosts(cfg, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*simgpu.Result{"hub": run.hub, "spoke": run.spoke} {
		if msg := sameResult(r, ref); msg != "" {
			t.Fatalf("%s over the metered connection differs: %s", name, msg)
		}
	}
	if run.hubConn.writes == 0 || run.spkConn.writes != run.hubConn.writes || run.setup <= 0 {
		t.Fatalf("frames hub %d spoke %d, handshake %v", run.hubConn.writes, run.spkConn.writes, run.setup)
	}
}

// TestReplicaMatchesSimgpu pins the traced sim-grid replica to simgpu.Run
// on one grid point, with scaling ticks and policy drops in play.
func TestReplicaMatchesSimgpu(t *testing.T) {
	tr, err := trace.Generate(trace.Config{Kind: trace.Tweet, Duration: 20 * time.Second, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	spec, lib := pipeline.LV(), profile.DefaultLibrary()
	res, err := simgpu.Run(simgpu.Config{Spec: spec, Lib: lib, PolicyName: "pard", Trace: tr, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	recs, events, times, err := replicate(newTracer(), spec, lib, "pard", tr, 9)
	if err != nil {
		t.Fatal(err)
	}
	if msg := sameRecords(recs, res.Collector.Records()); msg != "" {
		t.Fatalf("replica differs: %s", msg)
	}
	if events != res.SimEvents || times.syncTicks == 0 {
		t.Fatalf("replica fired %d events and %d sync ticks, simgpu.Run %d events", events, times.syncTicks, res.SimEvents)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists equal to
// what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
