package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"pard/internal/dist"
	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// sim-2host: one DA simulation split into two lane groups, hub and spoke
// joined over loopback TCP (dist.RunSimDistributed / dist.ServeSim, the
// -hosts path), in the shape of BenchmarkLaneGroupBarrier: steady 300 req/s
// for 4 s of virtual time, 100 ms sync period, 8 workers per module.

func twoHostConfig(tr *trace.Trace, seed int64) simgpu.Config {
	return simgpu.Config{
		Spec:         pipeline.DA(),
		PolicyName:   "pard",
		Trace:        tr,
		Seed:         seed,
		SyncPeriod:   100 * time.Millisecond,
		FixedWorkers: []int{8, 8, 8, 8, 8},
	}
}

func twoHostTrace(seed int64) (*trace.Trace, error) {
	return trace.Generate(trace.Config{Kind: trace.Steady, Duration: 4 * time.Second, PeakRate: 300, Seed: seed})
}

// twoHostRun is one distributed simulation and what it took.
type twoHostRun struct {
	hub, spoke       *simgpu.Result
	setup, sim       time.Duration // connect and handshake; the rest of the run
	hubConn, spkConn *meteredConn
}

// runTwoHosts connects a hub and a spoke over loopback TCP and runs cfg
// split between them. The spoke goroutine has ended when it returns.
func runTwoHosts(cfg simgpu.Config, t0 time.Time) (*twoHostRun, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	out := &twoHostRun{}
	var spokeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			spokeErr = err
			return
		}
		out.spkConn = &meteredConn{Conn: conn}
		out.spoke, spokeErr = dist.ServeSim(out.spkConn, dist.SimOptions{})
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close()
		wg.Wait()
		return nil, err
	}
	out.hubConn = &meteredConn{Conn: conn}
	out.hub, err = dist.RunSimDistributed(cfg, []net.Conn{out.hubConn}, dist.SimOptions{})
	end := time.Now()
	if err != nil {
		conn.Close()
		wg.Wait()
		return nil, err
	}
	wg.Wait()
	if spokeErr != nil {
		return nil, fmt.Errorf("spoke: %w", spokeErr)
	}
	hs := out.hubConn.handshakeDone()
	out.setup = hs.Sub(t0)
	out.sim = end.Sub(hs)
	return out, nil
}

// sameResult describes how two simulation results differ, or returns "".
func sameResult(a, b *simgpu.Result) string {
	if msg := sameRecords(a.Collector.Records(), b.Collector.Records()); msg != "" {
		return msg
	}
	if a.SimEvents != b.SimEvents {
		return fmt.Sprintf("%d events vs %d", a.SimEvents, b.SimEvents)
	}
	return ""
}

func runSim2Host(o runOpts) (*report, error) {
	rep := newReport()
	tr, err := twoHostTrace(o.seed)
	if err != nil {
		return nil, err
	}
	cfg := twoHostConfig(tr, o.seed)
	// The reference: the same config, untimed, in one process without
	// lane groups.
	ref, err := simgpu.Run(cfg)
	if err != nil {
		return nil, err
	}
	if o.tr != nil {
		return tracedSim2Host(o, rep, cfg, ref)
	}
	var setups, rates []float64
	var cpu time.Duration
	simulated := 0
	start := time.Now()
	for time.Since(start) < o.seconds || len(rates) < 2 {
		t0 := time.Now()
		c0 := cpuTime()
		// Set-up is the trace synthesis plus connecting and handshaking.
		trc, err := twoHostTrace(o.seed)
		if err != nil {
			return nil, err
		}
		run, err := runTwoHosts(twoHostConfig(trc, o.seed), t0)
		cpu += cpuTime() - c0
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.check(false, "distributed run: %v", err)
			continue
		}
		checkTwoHosts(rep, run, ref)
		setups = append(setups, run.setup.Seconds())
		rates = append(rates, float64(trc.Len())/run.sim.Seconds())
		simulated += trc.Len()
	}
	if len(rates) == 0 {
		return rep, nil
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["sim_req_per_s"] = median(rates)
	rep.metrics["cpu_us_per_req"] = float64(cpu.Microseconds()) / float64(simulated)
	resultStats(ref, rep.metrics)
	return rep, nil
}

// checkTwoHosts verifies that hub and spoke assembled the same result, and
// that it equals the one-process reference.
func checkTwoHosts(rep *report, run *twoHostRun, ref *simgpu.Result) {
	msg := sameResult(run.hub, run.spoke)
	rep.check(msg == "", "hub and spoke differ: %s", msg)
	ref2 := sameResult(run.hub, ref)
	rep.check(ref2 == "", "distributed run differs from the one-process run: %s", ref2)
	if msg != "" || ref2 != "" {
		rep.failed++
	}
}

// resultStats reports one PARD run's good share, wasted GPU share and
// latency quantiles of completed requests (simulated time).
func resultStats(res *simgpu.Result, m map[string]float64) {
	s := res.Summary
	m["pard_good_pct"] = 100 * float64(s.Good) / float64(s.Total)
	m["policy.wasted_gpu_pct"] = 100 * s.InvalidRate
	var lats []float64
	for _, r := range res.Collector.Records() {
		if r.Outcome == metrics.Good || r.Outcome == metrics.Late {
			lats = append(lats, ms(r.Done-r.Send))
		}
	}
	m["p50_ms"] = quantile(lats, 0.5)
	m["p99_ms"] = quantile(lats, 0.99)
}

// tracedSim2Host runs the distributed simulation once with both ends of the
// connection metered, then an in-process twin of the same run over counted
// memory transports.
func tracedSim2Host(o runOpts, rep *report, cfg simgpu.Config, ref *simgpu.Result) (*report, error) {
	tr := o.tr
	t0 := time.Now()
	rep.attempted++
	run, err := runTwoHosts(cfg, t0)
	if err != nil {
		rep.failed++
		rep.check(false, "distributed run: %v", err)
		return rep, nil
	}
	checkTwoHosts(rep, run, ref)
	runID := tr.id()
	tr.add(runID, "dist.handshake", t0, t0.Add(run.setup), -1)
	tr.end(runID, -1, "dist.run", t0, t0.Add(run.setup+run.sim), -1)
	m := rep.metrics
	m["traced.sim_req_per_s"] = float64(cfg.Trace.Len()) / run.sim.Seconds()
	m["dist.handshake_ms"] = ms(run.setup)
	for _, c := range []*meteredConn{run.hubConn, run.spkConn} {
		m["dist.frames"] += float64(c.writes)
		m["dist.bytes_mb"] += float64(c.bytes) / (1 << 20)
		m["dist.read_wait_ms"] += ms(c.readWait)
		m["dist.write_ms"] += ms(c.writeTime)
	}

	res, counted, err := runMemGroups(cfg, tr)
	rep.attempted++
	if err != nil {
		rep.failed++
		rep.check(false, "in-process twin: %v", err)
		return rep, nil
	}
	for g, r := range res {
		if msg := sameResult(r, ref); msg != "" {
			rep.failed++
			rep.check(false, "in-process twin group %d differs from the one-process run: %s", g, msg)
		}
	}
	names := [exKinds]string{"step", "barrier", "board", "scale", "finish"}
	for k, n := range counted[0].counts {
		m["sched.exchanges."+names[k]] = float64(n)
	}
	for _, c := range counted {
		m["sched.exchange_wait_ms"] += ms(c.wait)
	}
	resultStats(ref, m)
	return rep, nil
}

// runMemGroups runs cfg as two in-process lane groups over counted memory
// transports, one goroutine per group, and returns each group's result.
func runMemGroups(cfg simgpu.Config, tr *tracer) ([]*simgpu.Result, []*countingTransport, error) {
	const groups = 2
	inner := sched.NewMemTransports(groups)
	counted := make([]*countingTransport, groups)
	results := make([]*simgpu.Result, groups)
	errs := make([]error, groups)
	var wg sync.WaitGroup
	for g := range counted {
		counted[g] = &countingTransport{inner: inner[g]}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := cfg
			c.Remote = &simgpu.RemoteTopology{Groups: groups, Group: g, Transport: counted[g]}
			start := time.Now()
			results[g], errs[g] = simgpu.Run(c)
			if errs[g] != nil {
				inner[g].Abort(errs[g])
			}
			if tr != nil {
				tr.add(-1, fmt.Sprintf("simgpu.group%d", g), start, time.Now(), -1)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return results, counted, nil
}
