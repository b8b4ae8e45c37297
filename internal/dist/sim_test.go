package dist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// The distributed-simulation differential harness is the cross-host half of
// determinism invariant #5: one simulation split across N lane-group
// PROCESSES — hub plus spokes over real loopback TCP, through the framed
// gob transport — must be gob byte-identical to the same config run in one
// process, on every replica. It also proves the failure contract: a lane
// group disconnecting mid-run aborts the whole session loudly on every
// group, never a hang and never a silently divergent result.

// simCase is one corpus entry; Groups in the matrix are skipped when they
// exceed the app's module count (a group per module is the finest split).
type simCase struct {
	name string
	cfg  simgpu.Config
}

func simTrace(kind trace.Kind, rate float64, seed int64) *trace.Trace {
	return trace.MustGenerate(trace.Config{Kind: kind, Duration: 6 * time.Second, PeakRate: rate, Seed: seed})
}

// simCorpus covers every app shape (three chains and both DAG variants —
// cross-group fan-out/merge traffic), bursty and smooth traces, two policy
// families, injected failures with the scaler on, probes, and a sharded
// (Shards > 1) replica configuration.
func simCorpus() []simCase {
	return []simCase{
		{"tm-wiki-pard", simgpu.Config{
			Spec: pipeline.TM(), PolicyName: "pard",
			Trace: simTrace(trace.Wiki, 150, 1), Seed: 42,
			SyncPeriod: 200 * time.Millisecond,
		}},
		{"lv-tweet-nexus-probes", simgpu.Config{
			Spec: pipeline.LV(), PolicyName: "nexus",
			Trace: simTrace(trace.Tweet, 120, 2), Seed: 7,
			SyncPeriod: 200 * time.Millisecond,
			Probes:     simgpu.ProbeConfig{QueueDelay: true, LoadFactor: true, Decomposition: true},
		}},
		{"gm-azure-sharded", simgpu.Config{
			Spec: pipeline.GM(), PolicyName: "pard",
			Trace: simTrace(trace.Azure, 140, 3), Seed: 13,
			SyncPeriod: 200 * time.Millisecond, Shards: 2,
		}},
		{"da-dag-pard", simgpu.Config{
			Spec: pipeline.DA(), PolicyName: "pard",
			Trace: simTrace(trace.Tweet, 100, 9), Seed: 5,
			SyncPeriod: 200 * time.Millisecond,
		}},
		{"da-dyn-clipper", simgpu.Config{
			Spec: pipeline.DADynamic(0.5), PolicyName: "clipper++",
			Trace: simTrace(trace.Steady, 110, 4), Seed: 21,
			SyncPeriod: 200 * time.Millisecond,
		}},
		{"lv-failures-scaling", simgpu.Config{
			Spec: pipeline.LV(), PolicyName: "pard",
			Trace: simTrace(trace.Steady, 150, 5), Seed: 11,
			SyncPeriod: 200 * time.Millisecond,
			Failures: []simgpu.Failure{
				{At: 2 * time.Second, Module: 1, Count: 1},
				{At: 4 * time.Second, Module: 0, Count: 2},
			},
		}},
	}
}

func encodeSimResult(t *testing.T, res *simgpu.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runOverLoopback executes cfg as `groups` processes-worth of lane groups
// over loopback TCP: the hub in this goroutine, each spoke in its own, as
// cross-host deployments run them minus the physical network. It returns
// the hub's result plus every spoke's.
func runOverLoopback(t *testing.T, cfg simgpu.Config, groups int, opts SimOptions) (*simgpu.Result, []*simgpu.Result, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	spokes := groups - 1
	type spokeOut struct {
		res *simgpu.Result
		err error
	}
	outs := make(chan spokeOut, spokes)
	for i := 0; i < spokes; i++ {
		go func() {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				outs <- spokeOut{err: err}
				return
			}
			res, err := ServeSim(conn, opts)
			outs <- spokeOut{res: res, err: err}
		}()
	}
	conns := make([]net.Conn, spokes)
	for i := range conns {
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	hubRes, hubErr := RunSimDistributed(cfg, conns, opts)
	var spokeRes []*simgpu.Result
	for i := 0; i < spokes; i++ {
		select {
		case o := <-outs:
			if o.err != nil && hubErr == nil {
				hubErr = fmt.Errorf("spoke failed while hub succeeded: %w", o.err)
			}
			spokeRes = append(spokeRes, o.res)
		case <-time.After(60 * time.Second):
			t.Fatal("spoke never exited: the abort contract is broken")
		}
	}
	return hubRes, spokeRes, hubErr
}

func TestSimDistributedDifferential(t *testing.T) {
	corpus := simCorpus()
	groupCounts := []int{2, 4}
	if testing.Short() {
		// The CI race-short pass keeps the demanding shapes: DAG traffic
		// and failures+scaling, at one split. The dedicated differential
		// step runs the full matrix.
		corpus = []simCase{corpus[3], corpus[5]}
		groupCounts = []int{2}
	}
	opts := SimOptions{ExchangeTimeout: 30 * time.Second}
	for _, c := range corpus {
		t.Run(c.name, func(t *testing.T) {
			baseline, err := simgpu.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := encodeSimResult(t, baseline)
			for _, groups := range groupCounts {
				if groups > c.cfg.Spec.N() {
					continue
				}
				t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
					hubRes, spokeRes, err := runOverLoopback(t, c.cfg, groups, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got := encodeSimResult(t, hubRes); !bytes.Equal(want, got) {
						t.Fatalf("hub result diverged from single-process run (%d vs %d encoded bytes)\n single: %+v\n dist:   %+v",
							len(got), len(want), baseline.Summary, hubRes.Summary)
					}
					for i, res := range spokeRes {
						if got := encodeSimResult(t, res); !bytes.Equal(want, got) {
							t.Fatalf("spoke %d result diverged from single-process run", i+1)
						}
					}
				})
			}
		})
	}
}

// dropConn injects a mid-run disconnect: after `limit` reads it abruptly
// closes the underlying connection, exactly as a crashed lane-group host
// would look to its peers.
type dropConn struct {
	net.Conn
	mu    sync.Mutex
	reads int
	limit int
}

var errInjectedSimDrop = errors.New("injected mid-run lane-group disconnect")

func (c *dropConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	dead := c.reads > c.limit
	c.mu.Unlock()
	if dead {
		c.Conn.Close()
		return 0, errInjectedSimDrop
	}
	return c.Conn.Read(p)
}

// TestSimDistributedDisconnectAborts proves the failure half of invariant
// #5's cross-host contract: when one lane group vanishes mid-run, the hub
// and every surviving spoke abort with an error — bounded by the exchange
// deadline, never a hang, and never a partial result presented as complete.
func TestSimDistributedDisconnectAborts(t *testing.T) {
	cfg := simgpu.Config{
		Spec: pipeline.LV(), PolicyName: "pard",
		Trace: simTrace(trace.Tweet, 120, 6), Seed: 3,
		SyncPeriod: 200 * time.Millisecond,
	}
	opts := SimOptions{ExchangeTimeout: 20 * time.Second}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	spokeErrs := make(chan error, 2)
	// Spoke 1 is healthy; spoke 2 drops its connection a fixed number of
	// frames in — deterministically mid-run (a run is thousands of
	// exchanges).
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			spokeErrs <- err
			return
		}
		_, err = ServeSim(conn, opts)
		spokeErrs <- err
	}()
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			spokeErrs <- err
			return
		}
		_, err = ServeSim(&dropConn{Conn: conn, limit: 120}, opts)
		spokeErrs <- err
	}()
	conns := make([]net.Conn, 2)
	for i := range conns {
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	res, err := RunSimDistributed(cfg, conns, opts)
	if err == nil {
		t.Fatalf("hub returned a result (%+v) despite a lane group disconnecting mid-run", res.Summary)
	}
	for i := 0; i < 2; i++ {
		select {
		case serr := <-spokeErrs:
			if serr == nil {
				t.Fatal("a spoke returned a result despite the aborted session")
			}
		case <-time.After(60 * time.Second):
			t.Fatal("a spoke hung instead of aborting after the disconnect")
		}
	}
}

// TestServeSimRefusals pins the spoke-side handshake gates: protocol
// version skew, profile-library skew, and an out-of-range group assignment
// are refused with an explanatory ack, mirroring the sweep handshake.
func TestServeSimRefusals(t *testing.T) {
	job := jobFromConfig(simgpu.Config{Spec: pipeline.LV(), Trace: simTrace(trace.Steady, 50, 1)})
	fp := SimOptions{}.withDefaults().Library.Fingerprint()
	cases := []struct {
		name  string
		hello SimHello
		want  string
	}{
		{"version-skew", SimHello{Proto: ProtoVersion + 1, LibraryFP: fp, Groups: 2, Group: 1, Job: job}, "version mismatch"},
		{"v3-hub", SimHello{Proto: 3, LibraryFP: fp, Groups: 2, Group: 1, Job: job}, "version mismatch"},
		{"library-skew", SimHello{Proto: ProtoVersion, LibraryFP: fp ^ 1, Groups: 2, Group: 1, Job: job}, "library mismatch"},
		{"group-out-of-range", SimHello{Proto: ProtoVersion, LibraryFP: fp, Groups: 2, Group: 2, Job: job}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hubSide, spokeSide := net.Pipe()
			defer hubSide.Close()
			done := make(chan error, 1)
			go func() {
				_, err := ServeSim(spokeSide, SimOptions{})
				done <- err
			}()
			f := newFramed(hubSide)
			if err := f.send(tc.hello); err != nil {
				t.Fatal(err)
			}
			var ack SimAck
			if err := f.recv(&ack, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			err := <-done
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("spoke error = %v, want mention of %q", err, tc.want)
			}
			if tc.name == "group-out-of-range" && !strings.Contains(ack.Err, "out of range") {
				t.Fatalf("refusal ack should carry the reason, got %+v", ack)
			}
		})
	}
}

// TestSimLockstepSkewAborts proves the hub refuses a diverged replica: a
// spoke whose first exchange arrives with a skewed sequence number kills
// the session with a lockstep error instead of merging its contribution.
func TestSimLockstepSkewAborts(t *testing.T) {
	cfg := simgpu.Config{
		Spec: pipeline.LV(), PolicyName: "pard",
		Trace: simTrace(trace.Steady, 60, 2), Seed: 1,
		SyncPeriod: 200 * time.Millisecond,
	}
	hubSide, spokeSide := net.Pipe()
	go func() {
		f := newFramed(spokeSide)
		var h SimHello
		if err := f.recv(&h, 0); err != nil {
			return
		}
		if err := f.send(SimAck{Proto: ProtoVersion, LibraryFP: h.LibraryFP}); err != nil {
			return
		}
		// A replica that lost count: wrong sequence number on round one.
		f.send(simEnvelope{Seq: 999, Kind: simKindStep, Step: &sched.StepMsg{Group: 1}})
	}()
	_, err := RunSimDistributed(cfg, []net.Conn{hubSide}, SimOptions{ExchangeTimeout: 20 * time.Second})
	if err == nil {
		t.Fatal("hub merged an out-of-lockstep contribution")
	}
	if !strings.Contains(err.Error(), "lockstep divergence") {
		t.Fatalf("want a lockstep divergence error, got: %v", err)
	}
}
