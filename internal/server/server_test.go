package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/sched"
)

// fastLib returns a profile library with sub-millisecond models so live
// tests finish quickly.
func fastLib(t *testing.T) *profile.Library {
	t.Helper()
	lib := profile.NewLibrary()
	if err := lib.Add(profile.Model{
		Name:     "fast",
		Alpha:    200 * time.Microsecond,
		Beta:     100 * time.Microsecond,
		MaxBatch: 8,
	}); err != nil {
		t.Fatal(err)
	}
	return lib
}

func fastServer(t *testing.T, pol string) *Server {
	t.Helper()
	// Generous SLO relative to the sub-millisecond models so the test is
	// robust to scheduler noise on loaded machines.
	spec := pipeline.Uniform("live", 3, "fast", 150*time.Millisecond)
	s, err := New(Config{
		Spec:       spec,
		Lib:        fastLib(t),
		PolicyName: pol,
		SyncPeriod: 20 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil spec accepted")
	}
	if _, err := New(Config{Spec: pipeline.DA()}); err != nil {
		t.Fatalf("DAG rejected by live runtime: %v", err)
	}
	spec := pipeline.Uniform("x", 2, "fast", time.Second)
	if _, err := New(Config{Spec: spec, Lib: fastLib(t), Workers: []int{1}}); err == nil {
		t.Fatal("bad worker counts accepted")
	}
	if _, err := New(Config{Spec: spec, Lib: fastLib(t), PolicyName: "bogus"}); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := New(Config{Spec: spec, Lib: fastLib(t), Scaling: sched.ScalingConfig{Enabled: true}}); err == nil {
		t.Fatal("scaling without a tick period accepted")
	}
}

func TestServeLightLoad(t *testing.T) {
	s := fastServer(t, "pard")
	s.Start()
	defer s.Stop()

	var wg sync.WaitGroup
	results := make([]Response, 50)
	for i := 0; i < 50; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = <-s.Submit()
			time.Sleep(time.Millisecond)
		}()
		time.Sleep(500 * time.Microsecond)
	}
	wg.Wait()

	good := 0
	for _, r := range results {
		if r.Outcome == OutcomeGood {
			good++
		}
	}
	if good < 45 {
		t.Fatalf("only %d/50 good under light load", good)
	}
	sum := s.Summary()
	if sum.Total != 50 {
		t.Fatalf("summary total = %d", sum.Total)
	}
}

func TestServeOverloadDrops(t *testing.T) {
	// One worker per module, 4-deep pipeline with a tight SLO, and a burst
	// far beyond capacity: the policy must drop rather than serve everything
	// late.
	spec := pipeline.Uniform("hot", 3, "fast", 20*time.Millisecond)
	s, err := New(Config{
		Spec:       spec,
		Lib:        fastLib(t),
		PolicyName: "pard",
		Workers:    []int{1, 1, 1},
		SyncPeriod: 10 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	const n = 400
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[Outcome]int{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := <-s.Submit()
			mu.Lock()
			counts[r.Outcome]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if counts[OutcomeDropped] == 0 {
		t.Fatalf("no drops under gross overload: %v", counts)
	}
	if counts[OutcomeGood] == 0 {
		t.Fatalf("total collapse: %v", counts)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := fastServer(t, "pard")
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// healthz
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	// infer requires POST
	resp, err = http.Get(ts.URL + "/infer")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /infer = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// POST /infer round trip
	resp, err = http.Post(ts.URL+"/infer", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Outcome != OutcomeGood {
		t.Fatalf("infer outcome = %s (latency %.1fms)", out.Outcome, out.LatencyMS)
	}

	// stats
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sum map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sum["Total"].(float64) < 1 {
		t.Fatalf("stats total = %v", sum["Total"])
	}
}

// dagSpec builds a DA-shaped diamond (fan-out at 0, merge at 3) over the
// fast test model.
func dagSpec(slo time.Duration) *pipeline.Spec {
	s := &pipeline.Spec{
		App: "dag-live",
		SLO: slo,
		Modules: []pipeline.Module{
			{ID: 0, Name: "fast", Subs: []int{1, 2}},
			{ID: 1, Name: "fast", Pres: []int{0}, Subs: []int{3}},
			{ID: 2, Name: "fast", Pres: []int{0}, Subs: []int{3}},
			{ID: 3, Name: "fast", Pres: []int{1, 2}, Subs: []int{4}},
			{ID: 4, Name: "fast", Pres: []int{3}},
		},
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// TestServeDAG pushes live traffic through a fan-out/merge pipeline: every
// request must resolve exactly once (the merge collects both branch copies)
// and light load must mostly succeed end-to-end.
func TestServeDAG(t *testing.T) {
	s, err := New(Config{
		Spec:       dagSpec(200 * time.Millisecond),
		Lib:        fastLib(t),
		PolicyName: "pard",
		SyncPeriod: 20 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	var wg sync.WaitGroup
	results := make([]Response, 40)
	for i := 0; i < 40; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = <-s.Submit()
		}()
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	// The load is light, but this runs on real timers: a loaded CI machine
	// can legitimately push requests past the SLO, so assert the DAG
	// invariants (every request resolves exactly once, service happens)
	// rather than a timing-sensitive success rate. Decision-level behavior
	// is covered deterministically by the parity test.
	good := 0
	for _, r := range results {
		if r.Outcome == OutcomeGood {
			good++
		}
	}
	if good == 0 {
		t.Fatalf("no request survived the live DAG: %+v", results)
	}
	if sum := s.Summary(); sum.Total != 40 {
		t.Fatalf("summary total = %d, want 40 (merge double-counted?)", sum.Total)
	}
}

func TestStopIdempotent(t *testing.T) {
	s := fastServer(t, "nexus")
	s.Start()
	s.Stop()
	s.Stop() // second stop is a no-op
}

func TestAllPoliciesServe(t *testing.T) {
	for _, pol := range []string{"pard", "nexus", "clipper++", "naive", "pard-lbf"} {
		s := fastServer(t, pol)
		s.Start()
		r := <-s.Submit()
		if r.Outcome != OutcomeGood {
			t.Fatalf("%s: outcome %s", pol, r.Outcome)
		}
		s.Stop()
	}
}
