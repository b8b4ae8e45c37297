package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pard"
	"pard/internal/pipeline"
	"pard/internal/sched"
	"pard/internal/server"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// live-http: pard.NewServer for TM (2 workers per module, the pard policy,
// default profiles) behind an in-process http.Server speaking unencrypted
// HTTP/2 on loopback, driven open loop by seeded Poisson arrivals in three
// phases, each on a fresh server. Capacity is about 250 req/s.

type livePhase struct {
	name  string
	rps   float64
	share float64 // of --seconds
	gated bool
}

var livePhases = []livePhase{
	{"nominal", 175, 0.3, false},
	{"overload", 320, 0.5, false},
	{"gated", 320, 0.2, true},
}

const (
	// liveInFlight bounds admitted requests in the gated phase.
	liveInFlight = 64
	// twinBoundPct is how far, in percent, a phase's live good count may
	// sit from its simulator twin's.
	twinBoundPct = 10
	// liveExtraSetups is how many extra servers are set up and torn down
	// before, between and after the phases, so that setup_s is a median
	// over set-ups spread across the whole run.
	liveExtraSetups = 5
	// setupPause is the idle time before each set-up.
	setupPause = 20 * time.Millisecond
	// liveTimeout is the client's limit per request: past the server's own
	// 504 at 10x the 400 ms SLO, so the server always answers first.
	liveTimeout = 6 * time.Second
)

// Reply classes of the open-loop driver.
const (
	classGood = iota
	classLate
	classDropped
	classRejected // 429 from the admission gate
	classStalled  // 504 after 10x SLO
	classError    // transport error, timeout, other status, undecodable reply
)

// liveReq is one request of a phase, timed from the phase start.
type liveReq struct {
	due, sent, done time.Duration
	class           int
	serverMS        float64 // the reply's latency_ms
}

// liveServer is one phase's server, HTTP front end and client.
type liveServer struct {
	srv    *pard.Server
	exec   *sched.TimerExecutor
	timed  *timedExecutor // nil on untraced runs
	hs     *http.Server
	served chan error
	conns  atomic.Int32
	client *http.Client
	url    string
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	n *atomic.Int32
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// startLive builds a server, starts it behind HTTP/2 on a loopback port and
// opens the client's connection.
func startLive(seed int64, gated bool, tr *tracer) (*liveServer, error) {
	ls := &liveServer{exec: sched.NewTimerExecutor()}
	var exec sched.Executor = ls.exec
	if tr != nil {
		ls.timed = &timedExecutor{inner: ls.exec, tr: tr}
		exec = ls.timed
	}
	cfg := pard.ServerConfig{Spec: pipeline.TM(), PolicyName: "pard", Seed: seed, Exec: exec}
	if gated {
		cfg.Admission = pard.AdmissionConfig{Enabled: true, MaxInFlight: liveInFlight}
	}
	srv, err := pard.NewServer(cfg)
	if err != nil {
		ls.exec.Stop()
		return nil, err
	}
	ls.srv = srv
	srv.Start()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ls.exec.Stop()
		srv.Stop()
		return nil, err
	}
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	// The stream limit sits far above the deepest backlog an overload phase
	// builds, so the client never needs a second connection.
	ls.hs = &http.Server{Handler: srv.Handler(), Protocols: &protos,
		HTTP2: &http.HTTP2Config{MaxConcurrentStreams: 1 << 15}}
	ls.served = make(chan error, 1)
	go func() { ls.served <- ls.hs.Serve(countingListener{l, &ls.conns}) }()
	ls.client = &http.Client{Transport: &http.Transport{Protocols: &protos, MaxConnsPerHost: 1}}
	ls.url = "http://" + l.Addr().String()
	resp, err := ls.client.Get(ls.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		ls.close()
		return nil, err
	}
	return ls, nil
}

// close stops the core's timers, resolves whatever is still outstanding,
// and shuts the HTTP side down. Every goroutine it started has ended when
// it returns.
func (ls *liveServer) close() {
	ls.exec.Stop()
	ls.srv.Stop()
	ls.client.CloseIdleConnections()
	ls.hs.Close()
	<-ls.served
}

// do sends one request and classifies the reply.
func (ls *liveServer) do(r *liveReq, start time.Time, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	r.class = classError
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ls.url+"/infer", nil)
	if err != nil {
		r.done = time.Since(start)
		return
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		r.done = time.Since(start)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Since(start)
	if err != nil {
		return
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var v pard.ServerResponse
		if json.Unmarshal(body, &v) != nil {
			return
		}
		switch v.Outcome {
		case server.OutcomeGood:
			r.class = classGood
		case server.OutcomeLate:
			r.class = classLate
		case server.OutcomeDropped:
			r.class = classDropped
		default:
			return
		}
		r.serverMS = v.LatencyMS
	case http.StatusTooManyRequests:
		r.class = classRejected
	case http.StatusGatewayTimeout:
		r.class = classStalled
	}
}

// arrivals draws a Poisson schedule at rps over dur.
func arrivals(seed int64, rps float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rps
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// drive sends the schedule open loop: each request leaves at its due time
// whatever happened to earlier ones, on its own goroutine.
func drive(ls *liveServer, due []time.Duration, timeout time.Duration) []liveReq {
	out := make([]liveReq, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due = d
		out[i].sent = time.Since(start)
		wg.Add(1)
		go func(r *liveReq) {
			defer wg.Done()
			ls.do(r, start, timeout)
		}(&out[i])
	}
	wg.Wait()
	return out
}

// phaseResult is one phase's requests and the server's own account of them.
type phaseResult struct {
	phase   livePhase
	dur     time.Duration
	reqs    []liveReq
	summary pard.Summary
	cpu     time.Duration
	conns   int
	timed   *timedExecutor
}

func (p *phaseResult) count(class int) int {
	n := 0
	for _, r := range p.reqs {
		if r.class == class {
			n++
		}
	}
	return n
}

// goodWithinSLO counts good replies that arrived within the SLO of their
// due time.
func (p *phaseResult) goodWithinSLO(slo time.Duration) int {
	n := 0
	for _, r := range p.reqs {
		if r.class == classGood && r.done-r.due <= slo {
			n++
		}
	}
	return n
}

func runPhase(o runOpts, idx int, ph livePhase, setups *[]float64) (*phaseResult, error) {
	dur := time.Duration(float64(o.seconds) * ph.share)
	due := arrivals(o.seed*31+int64(idx), ph.rps, dur)
	time.Sleep(setupPause)
	t0 := time.Now()
	ls, err := startLive(o.seed, ph.gated, o.tr)
	if err != nil {
		return nil, err
	}
	*setups = append(*setups, time.Since(t0).Seconds())
	c0 := cpuTime()
	p0 := time.Now()
	reqs := drive(ls, due, liveTimeout)
	cpu := cpuTime() - c0
	ls.close()
	if o.tr != nil {
		phaseID := o.tr.id()
		for i, r := range reqs {
			o.tr.add(phaseID, "http.request", p0.Add(r.due), p0.Add(r.done), int64(i))
		}
		o.tr.end(phaseID, -1, "phase."+ph.name, p0, time.Now(), -1)
	}
	return &phaseResult{phase: ph, dur: dur, reqs: reqs, summary: ls.srv.Summary(),
		cpu: cpu, conns: int(ls.conns.Load()), timed: ls.timed}, nil
}

// checkPhase verifies that every request got exactly one outcome and that
// the client's tallies equal the server's.
func checkPhase(rep *report, p *phaseResult) {
	name := p.phase.name
	var n [classError + 1]int
	for _, r := range p.reqs {
		n[r.class]++
	}
	s := p.summary
	rep.check(p.conns >= 1 && p.conns <= workers(), "%s: %d client connections, want 1..%d", name, p.conns, workers())
	if n[classError] > 0 {
		// A transport failure leaves no way to know whether the server saw
		// the request; the failure itself is counted, so stop here.
		return
	}
	rep.check(s.Total == len(p.reqs), "%s: server resolved %d requests, client sent %d", name, s.Total, len(p.reqs))
	rep.check(s.Good == n[classGood], "%s: server counts %d good, client %d", name, s.Good, n[classGood])
	rep.check(s.Rejected == n[classRejected], "%s: server counts %d rejected, client %d", name, s.Rejected, n[classRejected])
	// A stalled request stays in the core after its 504, and ends late or
	// dropped there.
	rep.check(s.Late+s.Dropped == n[classLate]+n[classDropped]+n[classStalled],
		"%s: server counts %d late+dropped, client %d late+dropped+stalled", name,
		s.Late+s.Dropped, n[classLate]+n[classDropped]+n[classStalled])
}

// twin replays the phase's admitted send times through the simulator with
// the live deployment's shape, twinReps times, and returns the result, the
// number of requests replayed and the median time one replay took.
func twin(p *phaseResult, seed int64) (*simgpu.Result, int, time.Duration, error) {
	var offs []time.Duration
	for _, r := range p.reqs {
		if r.class != classRejected {
			offs = append(offs, r.sent)
		}
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	tr := &trace.Trace{Name: "live-replay", Arrivals: offs, Duration: offs[len(offs)-1] + time.Second}
	cfg := simgpu.Config{
		Spec:         pipeline.TM(),
		PolicyName:   "pard",
		Trace:        tr,
		Seed:         seed,
		SyncPeriod:   250 * time.Millisecond,
		FixedWorkers: []int{2, 2, 2},
		JitterPct:    -1, // live batches take exactly the profiled duration
		NetDelay:     -1, // live hops are in-process
	}
	var first *simgpu.Result
	var walls []float64
	for i := 0; i < twinReps; i++ {
		t0 := time.Now()
		res, err := simgpu.Run(cfg)
		walls = append(walls, float64(time.Since(t0)))
		if err != nil {
			return nil, 0, 0, err
		}
		if first == nil {
			first = res
		} else if msg := sameResult(res, first); msg != "" {
			return nil, 0, 0, fmt.Errorf("twin repeat %d differs: %s", i, msg)
		}
	}
	return first, len(offs), time.Duration(median(walls)), nil
}

// extraSetups sets up and tears down liveExtraSetups servers that serve
// nothing, and appends how long each took to set up.
func extraSetups(seed int64, setups *[]float64) error {
	for i := 0; i < liveExtraSetups; i++ {
		// Each set-up starts from an idle process, as a phase's does: set-ups
		// run back to back find warm caches and run faster but less steadily.
		time.Sleep(setupPause)
		t0 := time.Now()
		ls, err := startLive(seed, false, nil)
		if err != nil {
			return err
		}
		*setups = append(*setups, time.Since(t0).Seconds())
		ls.close()
	}
	return nil
}

// twinReps repeats each twin so that its timing, a median, is steady.
const twinReps = 25

func runLiveHTTP(o runOpts) (*report, error) {
	rep := newReport()
	slo := pipeline.TM().SLO
	var setups []float64
	var phases []*phaseResult
	for i, ph := range livePhases {
		if err := extraSetups(o.seed, &setups); err != nil {
			return nil, err
		}
		p, err := runPhase(o, i, ph, &setups)
		if err != nil {
			return nil, err
		}
		phases = append(phases, p)
	}
	if err := extraSetups(o.seed, &setups); err != nil {
		return nil, err
	}

	m := rep.metrics
	var cpu time.Duration
	var sent, goodSLO int
	var wasted, gpu time.Duration
	var late []float64
	var twinReqs int
	var twinWall time.Duration
	for _, p := range phases {
		checkPhase(rep, p)
		rep.attempted += len(p.reqs)
		rep.failed += p.count(classError) + p.count(classStalled)
		cpu += p.cpu
		sent += len(p.reqs)
		goodSLO += p.goodWithinSLO(slo)
		wasted += p.summary.GPUWasted
		gpu += p.summary.GPUTotal
		for _, r := range p.reqs {
			late = append(late, ms(r.sent-r.due))
		}

		res, n, wall, err := twin(p, o.seed)
		if err != nil {
			return nil, err
		}
		twinReqs += n
		twinWall += wall
		delta := 100 * float64(p.summary.Good-res.Summary.Good) / float64(res.Summary.Good)
		rep.check(math.Abs(delta) <= twinBoundPct, "%s: live good %d is %.1f%% from the simulator twin's %d (bound %d%%)",
			p.phase.name, p.summary.Good, delta, res.Summary.Good, twinBoundPct)
		pre := "server." + p.phase.name + "."
		m[pre+"sim_delta_pct"] = delta
		m[pre+"drop_pct"] = 100 * p.summary.DropRate
		m[pre+"stalled"] = float64(p.count(classStalled))
		m[pre+"reject_pct"] = 100 * float64(p.count(classRejected)) / float64(len(p.reqs))
		if p.phase.name != "nominal" {
			m["server."+p.phase.name+"_goodput_rps"] = float64(p.goodWithinSLO(slo)) / p.dur.Seconds()
		}
	}
	m["setup_s"] = median(setups)
	m["sim_req_per_s"] = float64(twinReqs) / twinWall.Seconds()
	m["cpu_us_per_req"] = float64(cpu.Microseconds()) / float64(sent)
	m["pard_good_pct"] = 100 * float64(goodSLO) / float64(sent)
	m["policy.wasted_gpu_pct"] = 100 * float64(wasted) / float64(gpu)
	m["load.dispatch_late_ms_max"] = quantile(late, 1)
	m["load.dispatch_late_ms_p99"] = quantile(late, 0.99)

	// Latency of the nominal phase, from each request's due time. A failed
	// request counts as the client timeout, slower than any reply.
	nominal := phases[0]
	var lat, srvLat, overhead []float64
	for _, r := range nominal.reqs {
		if r.class == classError || r.class == classStalled {
			lat = append(lat, ms(liveTimeout))
			continue
		}
		lat = append(lat, ms(r.done-r.due))
		if r.class != classRejected {
			srvLat = append(srvLat, r.serverMS)
			overhead = append(overhead, ms(r.done-r.sent)-r.serverMS)
		}
	}
	p50, p99 := quantile(lat, 0.5), quantile(lat, 0.99)
	if o.tr == nil {
		m["p50_ms"], m["p99_ms"] = p50, p99
		return rep, nil
	}
	m["traced.p99_ms"] = p99
	m["server.latency_ms_p50"] = quantile(srvLat, 0.5)
	m["server.latency_ms_p99"] = quantile(srvLat, 0.99)
	m["http.overhead_ms_p50"] = quantile(overhead, 0.5)
	m["http.overhead_ms_p99"] = quantile(overhead, 0.99)
	var lags []float64
	for _, p := range phases {
		t := p.timed
		m["server.callbacks"] += float64(t.callbacks)
		m["server.core_busy_ms"] += ms(t.busy)
		lags = append(lags, t.lagsMS...)
	}
	m["server.timer_lag_ms_p50"] = quantile(lags, 0.5)
	m["server.timer_lag_ms_p99"] = quantile(lags, 0.99)
	return rep, nil
}
