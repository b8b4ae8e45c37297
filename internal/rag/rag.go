// Package rag reproduces the paper's §7 case study: proactive request
// dropping applied to a Retrieval-Augmented-Generation workflow.
//
// The paper's stack (vLLM + Llama-3-8B, FAISS, Tavily web search; Table 2)
// is substituted by latency-faithful simulations of each stage family:
//
//   - rewrite:  continuous batching (a slot pool, no batch wait); latency
//     scales with the *output* length the model generates, which
//     is unknown until the rewrite completes.
//   - retrieve: batched vector-database lookup with near-constant latency.
//   - search:   external web API with unlimited concurrency and heavy
//     log-normal tail latency.
//   - generate: continuous batching; time-to-first-token is the prefill
//     time, which scales with the known input context length.
//
// retrieve and search run in parallel (a DAG), and generate waits for both.
// Three dropping policies are compared (Fig. 15a): reactive (drop only after
// the TTFT SLO is already violated), proactive (PARD-style estimates from
// recent averages and offline profiles), and predict (proactive plus oracle
// knowledge of rewrite output lengths).
package rag

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pard/internal/sched"
	"pard/internal/stats"
)

// PolicyKind selects the dropping policy.
type PolicyKind string

// RAG dropping policies (Fig. 15a).
const (
	Reactive  PolicyKind = "reactive"
	Proactive PolicyKind = "proactive"
	Predict   PolicyKind = "predict"
	NoDrop    PolicyKind = "nodrop"
)

// Policies lists the §7 comparison.
func Policies() []PolicyKind { return []PolicyKind{Predict, Reactive, Proactive} }

// Stage indices.
const (
	StageRewrite = iota
	StageRetrieve
	StageSearch
	StageGenerate
	numStages
)

// StageNames maps stage indices to Table 2 names.
var StageNames = [numStages]string{"rewrite", "retrieve", "search", "generate"}

// Config parameterizes a RAG run.
type Config struct {
	// Queries is the number of requests (paper: 10k from HotpotQA).
	Queries int
	// Rate is the mean arrival rate in req/s (Azure-trace-shaped arrivals).
	Rate float64
	// SLO is the time-to-first-token objective (paper: 5 s).
	SLO time.Duration
	// Policy selects the dropping policy.
	Policy PolicyKind
	Seed   int64

	// RewriteSlots / GenerateSlots bound LLM concurrency (continuous
	// batching capacity).
	RewriteSlots  int
	GenerateSlots int
	// SearchMedian / SearchSigma shape the log-normal web-search latency.
	SearchMedian time.Duration
	SearchSigma  float64
	// RetrieveDur is the profiled vector-DB lookup duration.
	RetrieveDur time.Duration
	// TokenTime is the per-token decode/prefill cost.
	TokenTime time.Duration
}

// DefaultConfig returns the Table 2 setup scaled for simulation.
func DefaultConfig(p PolicyKind) Config {
	return Config{
		Queries:       10000,
		Rate:          46,
		SLO:           5 * time.Second,
		Policy:        p,
		Seed:          1,
		RewriteSlots:  36,
		GenerateSlots: 96,
		SearchMedian:  800 * time.Millisecond,
		SearchSigma:   0.9,
		RetrieveDur:   35 * time.Millisecond,
		TokenTime:     9 * time.Millisecond,
	}
}

// request is one RAG query.
type request struct {
	id   int
	send time.Duration

	inputTokens   int
	rewriteTokens int // output length of the rewrite (oracle-known to predict)
	contextTokens int // generate prefill context

	rewriteDur time.Duration
	searchDur  time.Duration
	prefillDur time.Duration

	branchDone int // retrieve/search completions collected
	dropped    bool
	dropStage  int
	finished   bool
	ttft       time.Duration
}

// StageLatency records observed per-stage latencies for Fig. 15b.
type StageLatency struct {
	Name    string
	Samples []float64 // seconds
}

// Result summarizes one run.
type Result struct {
	Policy            PolicyKind
	Total             int
	Good              int
	Late              int
	Dropped           int
	DropRate          float64 // (dropped + late) / total
	NormalizedGoodput float64 // good / total
	DropsPerStage     [numStages]int
	Latencies         [numStages]StageLatency
}

// slotPool models continuous batching: up to cap requests run concurrently;
// excess waits FIFO. There is no batch wait — a releasing slot immediately
// admits the next request (§7: "continuous batching, eliminating batch
// wait").
type slotPool struct {
	cap     int
	busy    int
	waiting []func(now time.Duration)
}

func (s *slotPool) acquire(now time.Duration, fn func(now time.Duration)) {
	if s.busy < s.cap {
		s.busy++
		fn(now)
		return
	}
	s.waiting = append(s.waiting, fn)
}

func (s *slotPool) release(now time.Duration) {
	if len(s.waiting) > 0 {
		next := s.waiting[0]
		s.waiting = s.waiting[0:copy(s.waiting, s.waiting[1:])]
		next(now)
		return
	}
	s.busy--
}

type runner struct {
	cfg Config
	// x runs every stage event on its control lane: one serial queue
	// ordered by time, then schedule order. The single lane stays empty.
	x   *sched.ShardedExecutor
	rng *rand.Rand

	rewrite  *slotPool
	generate *slotPool

	// Recent-average estimators for the proactive policy.
	rewriteWin   *stats.SlidingWindow // total rewrite-stage latency (Fig. 15b probe)
	rewriteQWin  *stats.SlidingWindow // rewrite slot-queue wait
	rewriteDWin  *stats.SlidingWindow // rewrite decode durations (output-length proxy)
	searchWin    *stats.SlidingWindow
	generateQWin *stats.SlidingWindow // generate slot-queue wait (probe)
	generateDWin *stats.SlidingWindow // generate prefill durations

	reqs []*request
	res  *Result
}

// Run executes one RAG simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Queries <= 0 || cfg.Rate <= 0 || cfg.SLO <= 0 {
		return nil, fmt.Errorf("rag: queries, rate and SLO must be positive")
	}
	if cfg.RewriteSlots <= 0 || cfg.GenerateSlots <= 0 {
		return nil, fmt.Errorf("rag: slot pools must be positive")
	}
	switch cfg.Policy {
	case Reactive, Proactive, Predict, NoDrop:
	default:
		return nil, fmt.Errorf("rag: unknown policy %q", cfg.Policy)
	}
	r := &runner{
		cfg:          cfg,
		x:            sched.NewShardedExecutor(1, 1, 0),
		rng:          rand.New(rand.NewSource(cfg.Seed + 1)),
		rewrite:      &slotPool{cap: cfg.RewriteSlots},
		generate:     &slotPool{cap: cfg.GenerateSlots},
		rewriteWin:   stats.NewSlidingWindow(10 * time.Second),
		rewriteQWin:  stats.NewSlidingWindow(10 * time.Second),
		rewriteDWin:  stats.NewSlidingWindow(10 * time.Second),
		searchWin:    stats.NewSlidingWindow(10 * time.Second),
		generateQWin: stats.NewSlidingWindow(10 * time.Second),
		generateDWin: stats.NewSlidingWindow(10 * time.Second),
	}
	r.res = &Result{Policy: cfg.Policy}
	for i := range r.res.Latencies {
		r.res.Latencies[i] = StageLatency{Name: StageNames[i]}
	}
	r.inject()
	r.x.Run()
	r.finalize()
	return r.res, nil
}

// sampleRequest draws workload parameters: HotpotQA-like question lengths,
// rewrite output lengths correlated with input, and long-tail search.
func (r *runner) sampleRequest(id int, at time.Duration) *request {
	in := 16 + r.rng.Intn(48) // question tokens
	out := 10 + int(r.rng.ExpFloat64()*70)
	if out > 600 {
		out = 600
	}
	ctx := in + out + 300 + r.rng.Intn(900) // retrieved + searched context
	req := &request{
		id:            id,
		send:          at,
		inputTokens:   in,
		rewriteTokens: out,
		contextTokens: ctx,
		dropStage:     -1,
	}
	req.rewriteDur = 60*time.Millisecond + time.Duration(out)*r.cfg.TokenTime
	req.prefillDur = 40*time.Millisecond + time.Duration(ctx)*r.cfg.TokenTime/4
	// Log-normal search latency with occasional multi-second tail.
	ln := math.Exp(r.rng.NormFloat64() * r.cfg.SearchSigma)
	req.searchDur = time.Duration(float64(r.cfg.SearchMedian) * ln)
	return req
}

func (r *runner) inject() {
	// Azure-shaped burstiness: a non-homogeneous Poisson process whose rate
	// swings between ≈0.4× and ≈1.8× the mean on a ~2 min period, pushing
	// the LLM pools into sustained transient overload (the regime where the
	// three policies differ). Lewis-Shedler thinning over wall time.
	rate := func(t float64) float64 {
		s := math.Sin(2 * math.Pi * t / 120)
		return r.cfg.Rate * (0.5 + 0.9*s*s)
	}
	maxRate := r.cfg.Rate * 1.4
	t := 0.0
	for i := 0; i < r.cfg.Queries; i++ {
		for {
			t += r.rng.ExpFloat64() / maxRate
			if r.rng.Float64()*maxRate <= rate(t) {
				break
			}
		}
		at := time.Duration(t * float64(time.Second))
		req := r.sampleRequest(i, at)
		r.reqs = append(r.reqs, req)
		r.x.Schedule(at, "rag-arrive", func(now time.Duration) { r.enterRewrite(req, now) })
	}
}

// estimate returns the policy's TTFT estimate for the remaining stages when
// the request is about to enter the given stage.
func (r *runner) estimate(req *request, stage int, now time.Duration) time.Duration {
	elapsed := now - req.send
	if r.cfg.Policy == Reactive {
		return elapsed // reactive: only what has already happened
	}
	var rest time.Duration
	switch stage {
	case StageRewrite:
		// Both estimators share the observed slot-queue wait; they differ in
		// the decode term: proactive can only use the recent average decode
		// duration (output length is unknown before the rewrite runs), while
		// predict has oracle knowledge of this request's output length —
		// exactly the gap §7 quantifies.
		rest += r.queueEstimate(r.rewrite, r.meanDur(r.rewriteDWin, now, 500*time.Millisecond))
		if r.cfg.Policy == Predict {
			rest += req.rewriteDur
		} else if d, ok := r.rewriteDWin.Mean(now); ok {
			rest += time.Duration(d * float64(time.Second))
		} else {
			rest += 150 * time.Millisecond
		}
		fallthrough
	case StageRetrieve, StageSearch:
		// Parallel branch: bounded by the slower of retrieve and estimated
		// search.
		search := 1200 * time.Millisecond
		if m, ok := r.searchWin.Mean(now); ok {
			search = time.Duration(m * float64(time.Second))
		}
		if r.cfg.RetrieveDur > search {
			search = r.cfg.RetrieveDur
		}
		rest += search
		fallthrough
	case StageGenerate:
		rest += req.prefillDur // profiled from known context length
		rest += r.queueEstimate(r.generate, r.meanDur(r.generateDWin, now, 2*time.Second))
	}
	return elapsed + rest
}

// meanDur returns the window's mean in duration form, or the fallback when
// no samples exist yet.
func (r *runner) meanDur(w *stats.SlidingWindow, now time.Duration, fallback time.Duration) time.Duration {
	if m, ok := w.Mean(now); ok {
		return time.Duration(m * float64(time.Second))
	}
	return fallback
}

// queueEstimate predicts a slot pool's queue wait from its *instantaneous*
// state via Little's law: waiting × mean-service / slots. PARD's bi-
// directional runtime information is exactly this kind of live queue state;
// estimators built from completed-request windows lag the queue and
// mis-drop during transitions (the death-spiral failure mode of naive
// admission control).
func (r *runner) queueEstimate(pool *slotPool, meanService time.Duration) time.Duration {
	if pool.cap == 0 {
		return 0
	}
	return time.Duration(len(pool.waiting)) * meanService / time.Duration(pool.cap)
}

// admit applies the dropping policy before a stage; false means dropped.
func (r *runner) admit(req *request, stage int, now time.Duration) bool {
	if req.dropped {
		return false
	}
	if r.cfg.Policy == NoDrop {
		return true
	}
	if r.estimate(req, stage, now) <= r.cfg.SLO {
		return true
	}
	req.dropped = true
	req.dropStage = stage
	r.res.DropsPerStage[stage]++
	return false
}

func (r *runner) enterRewrite(req *request, now time.Duration) {
	if !r.admit(req, StageRewrite, now) {
		return
	}
	enter := now
	r.rewrite.acquire(now, func(start time.Duration) {
		end := start + req.rewriteDur
		r.x.Schedule(end, "rewrite-done", func(done time.Duration) {
			total := done - enter // slot queueing + decoding
			r.rewriteWin.Add(done, total.Seconds())
			r.rewriteQWin.Add(done, (start - enter).Seconds())
			r.rewriteDWin.Add(done, req.rewriteDur.Seconds())
			r.record(StageRewrite, total)
			r.rewrite.release(done)
			r.enterBranches(req, done)
		})
	})
}

func (r *runner) enterBranches(req *request, now time.Duration) {
	okRetrieve := r.admit(req, StageRetrieve, now)
	if !okRetrieve {
		return
	}
	// Retrieve branch (batched vector DB; modeled as near-constant).
	retEnd := now + r.cfg.RetrieveDur + time.Duration(r.rng.Intn(10))*time.Millisecond
	r.x.Schedule(retEnd, "retrieve-done", func(done time.Duration) {
		r.record(StageRetrieve, done-now)
		r.branchDone(req, done)
	})
	// Search branch (web API, unbounded concurrency, heavy tail).
	searchEnd := now + req.searchDur
	r.x.Schedule(searchEnd, "search-done", func(done time.Duration) {
		r.searchWin.Add(done, req.searchDur.Seconds())
		r.record(StageSearch, req.searchDur)
		r.branchDone(req, done)
	})
}

func (r *runner) branchDone(req *request, now time.Duration) {
	req.branchDone++
	if req.branchDone < 2 || req.dropped {
		return
	}
	r.enterGenerate(req, now)
}

func (r *runner) enterGenerate(req *request, now time.Duration) {
	if !r.admit(req, StageGenerate, now) {
		return
	}
	enter := now
	r.generate.acquire(now, func(start time.Duration) {
		end := start + req.prefillDur
		r.x.Schedule(end, "prefill-done", func(done time.Duration) {
			r.generateQWin.Add(done, (start - enter).Seconds())
			r.generateDWin.Add(done, req.prefillDur.Seconds())
			r.record(StageGenerate, done-enter)
			r.generate.release(done)
			req.finished = true
			req.ttft = done - req.send
		})
	})
}

func (r *runner) record(stage int, lat time.Duration) {
	s := &r.res.Latencies[stage]
	if len(s.Samples) < 20000 {
		s.Samples = append(s.Samples, lat.Seconds())
	}
}

func (r *runner) finalize() {
	res := r.res
	res.Total = len(r.reqs)
	for _, req := range r.reqs {
		switch {
		case req.finished && req.ttft <= r.cfg.SLO:
			res.Good++
		case req.finished:
			res.Late++
		default:
			res.Dropped++
		}
	}
	if res.Total > 0 {
		res.DropRate = float64(res.Dropped+res.Late) / float64(res.Total)
		res.NormalizedGoodput = float64(res.Good) / float64(res.Total)
	}
}
