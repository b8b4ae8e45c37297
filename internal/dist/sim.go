package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// Distributed-simulation session: the cross-host implementation of
// sched.Transport, carrying the lane-group lockstep exchanges over the same
// framed, version-guarded protocol the sweep coordinator uses.
//
// Topology is hub and spokes. The hub process runs lane group 0 locally and
// holds one framed connection per remote group; each spoke runs exactly one
// group. One exchange round is:
//
//	spoke g → hub:  simEnvelope{Seq, Kind, own contribution}
//	hub → spoke g:  simReply{Seq, Kind, merged contributions in group order}
//
// The hub gathers in connection-slot order — a spoke's group index is the
// slot it was handed in the handshake, never self-claimed — merges with its
// own contribution at index 0, and broadcasts the identical reply to every
// spoke. Sequence numbers advance in lockstep on both ends; any skew (a
// replayed frame, a diverged replica exchanging the wrong kind) poisons the
// session instead of merging wrong-but-plausible state. Every read is
// deadlined, so a dead peer surfaces as an abort on every group rather than
// a silent hang at the next rendezvous.

// SimJob ships one distributed simulation's configuration to a spoke. The
// fields are the RAW simgpu.Config knobs — withDefaults is deliberately not
// applied before encoding (its NetDelay/JitterPct sentinels are not
// idempotent), so every replica normalizes the identical raw input exactly
// once. The profile library does not travel: like sweep units, profiles are
// fingerprint-checked at the handshake instead.
type SimJob struct {
	Spec             *pipeline.Spec
	PolicyName       string
	Trace            *trace.Trace
	Seed             int64
	BatchFrac        float64
	SyncPeriod       time.Duration
	QueueWindow      time.Duration
	WaitReservoir    int
	NetDelay         time.Duration
	JitterPct        float64
	Scaling          sched.ScalingConfig
	FixedWorkers     []int
	Probes           sched.ProbeConfig
	Failures         []sched.Failure
	Lambda           float64
	EstimatorSamples int
	PriorityWindow   time.Duration
	Shards           int
}

func jobFromConfig(cfg simgpu.Config) SimJob {
	return SimJob{
		Spec:             cfg.Spec,
		PolicyName:       cfg.PolicyName,
		Trace:            cfg.Trace,
		Seed:             cfg.Seed,
		BatchFrac:        cfg.BatchFrac,
		SyncPeriod:       cfg.SyncPeriod,
		QueueWindow:      cfg.QueueWindow,
		WaitReservoir:    cfg.WaitReservoir,
		NetDelay:         cfg.NetDelay,
		JitterPct:        cfg.JitterPct,
		Scaling:          cfg.Scaling,
		FixedWorkers:     cfg.FixedWorkers,
		Probes:           cfg.Probes,
		Failures:         cfg.Failures,
		Lambda:           cfg.Lambda,
		EstimatorSamples: cfg.EstimatorSamples,
		PriorityWindow:   cfg.PriorityWindow,
		Shards:           cfg.Shards,
	}
}

func (j SimJob) config() simgpu.Config {
	return simgpu.Config{
		Spec:             j.Spec,
		PolicyName:       j.PolicyName,
		Trace:            j.Trace,
		Seed:             j.Seed,
		BatchFrac:        j.BatchFrac,
		SyncPeriod:       j.SyncPeriod,
		QueueWindow:      j.QueueWindow,
		WaitReservoir:    j.WaitReservoir,
		NetDelay:         j.NetDelay,
		JitterPct:        j.JitterPct,
		Scaling:          j.Scaling,
		FixedWorkers:     j.FixedWorkers,
		Probes:           j.Probes,
		Failures:         j.Failures,
		Lambda:           j.Lambda,
		EstimatorSamples: j.EstimatorSamples,
		PriorityWindow:   j.PriorityWindow,
		Shards:           j.Shards,
	}
}

// SimHello opens a hub→spoke simulation session: protocol version and
// profile-library fingerprint (both refused on mismatch, exactly like the
// sweep handshake), this spoke's assigned lane group, and the job itself.
type SimHello struct {
	Proto     int
	LibraryFP uint64
	Groups    int
	Group     int
	Job       SimJob
}

// SimAck completes the simulation handshake. A non-empty Err means the
// spoke refuses the session and says why.
type SimAck struct {
	Proto     int
	LibraryFP uint64
	Err       string
}

// Exchange kind tags on the wire; they mirror the sharded executor's
// rendezvous kinds so lockstep violations carry a readable name.
const (
	simKindStep uint8 = iota + 1
	simKindBarrier
	simKindBoard
	simKindScale
	simKindFinish
)

func simKindName(k uint8) string {
	switch k {
	case simKindStep:
		return "step"
	case simKindBarrier:
		return "barrier"
	case simKindBoard:
		return "board"
	case simKindScale:
		return "scale"
	case simKindFinish:
		return "finish"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// simEnvelope is one spoke's contribution to one exchange round. Exactly
// one payload pointer is set, matching Kind.
type simEnvelope struct {
	Seq     uint64
	Kind    uint8
	Step    *sched.StepMsg
	Barrier *sched.BarrierMsg
	Board   *sched.BoardMsg
	Scale   *sched.ScaleMsg
	Finish  *sched.FinishMsg
}

// simReply is the hub's broadcast: every group's contribution for the
// round, ordered by group index. Exactly one slice is non-nil, matching
// Kind.
type simReply struct {
	Seq      uint64
	Kind     uint8
	Steps    []sched.StepMsg
	Barriers []sched.BarrierMsg
	Boards   []sched.BoardMsg
	Scales   []sched.ScaleMsg
	Finishes []sched.FinishMsg
}

// SimOptions parameterizes both ends of a distributed simulation session.
type SimOptions struct {
	// Library provides the model profiles (default profile.DefaultLibrary());
	// its fingerprint must match the peer's.
	Library *profile.Library
	// HandshakeTimeout bounds the hello/ack round trip (default 10s).
	HandshakeTimeout time.Duration
	// ExchangeTimeout bounds each lockstep read: how long one group waits at
	// a rendezvous for its peers before declaring the session dead (default
	// 2m — generous, because a peer may legitimately spend a long stretch
	// simulating between exchanges).
	ExchangeTimeout time.Duration
	// Logf, when set, receives session logging.
	Logf func(format string, args ...any)
}

func (o SimOptions) withDefaults() SimOptions {
	if o.Library == nil {
		o.Library = profile.DefaultLibrary()
	}
	if o.HandshakeTimeout == 0 {
		o.HandshakeTimeout = 10 * time.Second
	}
	if o.ExchangeTimeout == 0 {
		o.ExchangeTimeout = 2 * time.Minute
	}
	return o
}

// simHub is lane group 0's Transport: it gathers peer envelopes over the
// spoke connections, merges, and broadcasts. Methods are called from the
// hub replica's executor only; the lock exists so Abort (called from error
// paths, possibly another goroutine) composes with an in-flight exchange.
type simHub struct {
	peers   []*framed // peers[i] serves lane group i+1
	timeout time.Duration
	seq     uint64
	err     error
	mu      sync.Mutex
}

func newSimHub(peers []*framed, timeout time.Duration) *simHub {
	return &simHub{peers: peers, timeout: timeout}
}

// fail poisons the session (first error wins) and closes every spoke
// connection so blocked peers unblock into an abort instead of timing out.
// Callers hold the lock.
func (h *simHub) fail(err error) error {
	if h.err == nil && err != nil {
		h.err = err
		for _, p := range h.peers {
			p.Close()
		}
	}
	return err
}

func (h *simHub) Abort(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fail(err)
}

// exchange runs one gather/broadcast round. The merged reply holds the
// hub's own contribution at index 0 and spoke i's at index i+1 — slot
// position is authoritative, and an envelope claiming a different group,
// the wrong kind, or a skewed sequence number kills the session.
func (h *simHub) exchange(kind uint8, own simEnvelope) (simReply, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return simReply{}, h.err
	}
	h.seq++
	reply := simReply{Seq: h.seq, Kind: kind}
	if err := appendContribution(&reply, 0, own); err != nil {
		return simReply{}, h.fail(err)
	}
	for i, p := range h.peers {
		g := i + 1
		var env simEnvelope
		if err := p.recv(&env, h.timeout); err != nil {
			return simReply{}, h.fail(fmt.Errorf("dist: sim %s exchange: lane group %d: %w", simKindName(kind), g, err))
		}
		if env.Seq != h.seq || env.Kind != kind {
			return simReply{}, h.fail(fmt.Errorf("dist: sim lockstep divergence: lane group %d sent %s seq %d while the session is at %s seq %d",
				g, simKindName(env.Kind), env.Seq, simKindName(kind), h.seq))
		}
		if err := appendContribution(&reply, g, env); err != nil {
			return simReply{}, h.fail(err)
		}
	}
	for i, p := range h.peers {
		if err := p.send(reply); err != nil {
			return simReply{}, h.fail(fmt.Errorf("dist: sim %s broadcast: lane group %d: %w", simKindName(kind), i+1, err))
		}
	}
	return reply, nil
}

// appendContribution merges group g's envelope into the reply, verifying
// the payload shape and that the message's self-reported group matches its
// connection slot.
func appendContribution(r *simReply, g int, env simEnvelope) error {
	claim := func(got int32) error {
		if int(got) != g {
			return fmt.Errorf("dist: sim %s exchange: connection slot %d claims to be lane group %d", simKindName(r.Kind), g, got)
		}
		return nil
	}
	switch r.Kind {
	case simKindStep:
		if env.Step == nil {
			break
		}
		if err := claim(env.Step.Group); err != nil {
			return err
		}
		r.Steps = append(r.Steps, *env.Step)
		return nil
	case simKindBarrier:
		if env.Barrier == nil {
			break
		}
		if err := claim(env.Barrier.Group); err != nil {
			return err
		}
		r.Barriers = append(r.Barriers, *env.Barrier)
		return nil
	case simKindBoard:
		if env.Board == nil {
			break
		}
		if err := claim(env.Board.Group); err != nil {
			return err
		}
		r.Boards = append(r.Boards, *env.Board)
		return nil
	case simKindScale:
		if env.Scale == nil {
			break
		}
		if err := claim(env.Scale.Group); err != nil {
			return err
		}
		r.Scales = append(r.Scales, *env.Scale)
		return nil
	case simKindFinish:
		if env.Finish == nil {
			break
		}
		if err := claim(env.Finish.Group); err != nil {
			return err
		}
		r.Finishes = append(r.Finishes, *env.Finish)
		return nil
	}
	return fmt.Errorf("dist: sim %s exchange: lane group %d envelope carries no %s payload", simKindName(r.Kind), g, simKindName(r.Kind))
}

func (h *simHub) Step(m sched.StepMsg) ([]sched.StepMsg, error) {
	r, err := h.exchange(simKindStep, simEnvelope{Step: &m})
	return r.Steps, err
}

func (h *simHub) Barrier(m sched.BarrierMsg) ([]sched.BarrierMsg, error) {
	r, err := h.exchange(simKindBarrier, simEnvelope{Barrier: &m})
	return r.Barriers, err
}

func (h *simHub) Board(m sched.BoardMsg) ([]sched.BoardMsg, error) {
	r, err := h.exchange(simKindBoard, simEnvelope{Board: &m})
	return r.Boards, err
}

func (h *simHub) Scale(m sched.ScaleMsg) ([]sched.ScaleMsg, error) {
	r, err := h.exchange(simKindScale, simEnvelope{Scale: &m})
	return r.Scales, err
}

func (h *simHub) Finish(m sched.FinishMsg) ([]sched.FinishMsg, error) {
	r, err := h.exchange(simKindFinish, simEnvelope{Finish: &m})
	return r.Finishes, err
}

// simSpoke is a remote lane group's Transport: send the contribution, read
// back the merged broadcast, verify lockstep.
type simSpoke struct {
	f       *framed
	group   int
	groups  int
	timeout time.Duration
	seq     uint64
	err     error
	mu      sync.Mutex
}

func newSimSpoke(f *framed, group, groups int, timeout time.Duration) *simSpoke {
	return &simSpoke{f: f, group: group, groups: groups, timeout: timeout}
}

func (s *simSpoke) fail(err error) error {
	if s.err == nil && err != nil {
		s.err = err
		s.f.Close()
	}
	return err
}

func (s *simSpoke) Abort(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail(err)
}

func (s *simSpoke) exchange(kind uint8, env simEnvelope) (simReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return simReply{}, s.err
	}
	s.seq++
	env.Seq, env.Kind = s.seq, kind
	if err := s.f.send(env); err != nil {
		return simReply{}, s.fail(fmt.Errorf("dist: sim %s exchange: %w", simKindName(kind), err))
	}
	var r simReply
	if err := s.f.recv(&r, s.timeout); err != nil {
		return simReply{}, s.fail(fmt.Errorf("dist: sim %s exchange: %w", simKindName(kind), err))
	}
	if r.Seq != s.seq || r.Kind != kind {
		return simReply{}, s.fail(fmt.Errorf("dist: sim lockstep divergence: hub sent %s seq %d while this group is at %s seq %d",
			simKindName(r.Kind), r.Seq, simKindName(kind), s.seq))
	}
	return r, nil
}

// merged validates a broadcast's arity: every exchange must return exactly
// one contribution per lane group.
func merged[T any](s *simSpoke, kind uint8, got []T, err error) ([]T, error) {
	if err != nil {
		return nil, err
	}
	if len(got) != s.groups {
		s.mu.Lock()
		defer s.mu.Unlock()
		return nil, s.fail(fmt.Errorf("dist: sim %s exchange: hub merged %d contributions for %d lane groups", simKindName(kind), len(got), s.groups))
	}
	return got, nil
}

func (s *simSpoke) Step(m sched.StepMsg) ([]sched.StepMsg, error) {
	r, err := s.exchange(simKindStep, simEnvelope{Step: &m})
	return merged(s, simKindStep, r.Steps, err)
}

func (s *simSpoke) Barrier(m sched.BarrierMsg) ([]sched.BarrierMsg, error) {
	r, err := s.exchange(simKindBarrier, simEnvelope{Barrier: &m})
	return merged(s, simKindBarrier, r.Barriers, err)
}

func (s *simSpoke) Board(m sched.BoardMsg) ([]sched.BoardMsg, error) {
	r, err := s.exchange(simKindBoard, simEnvelope{Board: &m})
	return merged(s, simKindBoard, r.Boards, err)
}

func (s *simSpoke) Scale(m sched.ScaleMsg) ([]sched.ScaleMsg, error) {
	r, err := s.exchange(simKindScale, simEnvelope{Scale: &m})
	return merged(s, simKindScale, r.Scales, err)
}

func (s *simSpoke) Finish(m sched.FinishMsg) ([]sched.FinishMsg, error) {
	r, err := s.exchange(simKindFinish, simEnvelope{Finish: &m})
	return merged(s, simKindFinish, r.Finishes, err)
}

// RunSimDistributed runs cfg as a cross-host lockstep simulation: this
// process executes lane group 0 (the hub) and each conns[i] — a connection
// to a peer running ServeSim — executes lane group i+1. The result is
// bit-identical to the same config run in one process (determinism
// invariant #5); every replica independently assembles it, and the hub's
// copy is returned. Any failure — a dead peer, a refused handshake, a
// lockstep divergence — aborts the whole session loudly on every group.
//
// cfg is consumed RAW (each replica normalizes it exactly once); it must
// not set Groups (the in-process form) or Remote.
func RunSimDistributed(cfg simgpu.Config, conns []net.Conn, opts SimOptions) (*simgpu.Result, error) {
	opts = opts.withDefaults()
	if len(conns) == 0 {
		return nil, fmt.Errorf("dist: distributed simulation needs at least one remote lane group")
	}
	if cfg.Groups > 1 || cfg.Remote != nil {
		return nil, fmt.Errorf("dist: config already carries a lane-group topology; RunSimDistributed assigns its own")
	}
	groups := len(conns) + 1
	if cfg.Spec != nil && groups > cfg.Spec.N() {
		return nil, fmt.Errorf("dist: %d lane groups for %d modules; at most one group per module", groups, cfg.Spec.N())
	}
	if cfg.Lib == nil {
		cfg.Lib = opts.Library
	}
	fp := cfg.Lib.Fingerprint()
	job := jobFromConfig(cfg)

	peers := make([]*framed, len(conns))
	closeAll := func() {
		for _, p := range peers {
			if p != nil {
				p.Close()
			}
		}
	}
	for i, conn := range conns {
		g := i + 1
		f := newFramed(conn)
		conn.SetDeadline(time.Now().Add(opts.HandshakeTimeout))
		if err := f.send(SimHello{Proto: ProtoVersion, LibraryFP: fp, Groups: groups, Group: g, Job: job}); err != nil {
			peers[i] = f
			closeAll()
			return nil, fmt.Errorf("dist: sim handshake: lane group %d: %w", g, err)
		}
		var ack SimAck
		if err := f.recv(&ack, 0); err != nil {
			peers[i] = f
			closeAll()
			return nil, fmt.Errorf("dist: sim handshake: lane group %d: %w", g, err)
		}
		peers[i] = f
		if ack.Err != "" {
			closeAll()
			return nil, fmt.Errorf("dist: lane group %d refused the session: %s", g, ack.Err)
		}
		if ack.Proto != ProtoVersion {
			closeAll()
			return nil, fmt.Errorf("dist: protocol version mismatch: hub %d, lane group %d runs %d", ProtoVersion, g, ack.Proto)
		}
		if ack.LibraryFP != fp {
			closeAll()
			return nil, fmt.Errorf("dist: model-profile library mismatch (hub %016x, lane group %d %016x)", fp, g, ack.LibraryFP)
		}
		conn.SetDeadline(time.Time{})
	}
	if opts.Logf != nil {
		opts.Logf("dist: sim session open: %d lane groups (hub + %d remote)", groups, len(conns))
	}

	hub := newSimHub(peers, opts.ExchangeTimeout)
	run := cfg
	run.Remote = &simgpu.RemoteTopology{Groups: groups, Group: 0, Transport: hub}
	res, err := simgpu.Run(run)
	if err != nil {
		hub.Abort(err)
		return nil, fmt.Errorf("dist: distributed simulation: %w", err)
	}
	closeAll() // session complete; the close is the goodbye, as in the sweep protocol
	return res, nil
}

// ServeSim serves one distributed simulation as the lane group assigned in
// the hub's SimHello, returning this replica's (bit-identical) result. The
// connection is closed when the function returns.
func ServeSim(conn net.Conn, opts SimOptions) (*simgpu.Result, error) {
	opts = opts.withDefaults()
	defer conn.Close()
	f := newFramed(conn)
	conn.SetDeadline(time.Now().Add(opts.HandshakeTimeout))
	var h SimHello
	if err := f.recv(&h, 0); err != nil {
		return nil, fmt.Errorf("dist: sim handshake: %w", err)
	}
	fp := opts.Library.Fingerprint()
	if h.Proto != ProtoVersion {
		_ = f.send(SimAck{Proto: ProtoVersion, LibraryFP: fp})
		return nil, fmt.Errorf("dist: protocol version mismatch: this host %d, hub %d", ProtoVersion, h.Proto)
	}
	if h.LibraryFP != fp {
		_ = f.send(SimAck{Proto: ProtoVersion, LibraryFP: fp})
		return nil, fmt.Errorf("dist: model-profile library mismatch (this host %016x, hub %016x)", fp, h.LibraryFP)
	}
	if h.Groups < 2 || h.Group < 1 || h.Group >= h.Groups {
		reason := fmt.Sprintf("lane group %d/%d out of range", h.Group, h.Groups)
		_ = f.send(SimAck{Proto: ProtoVersion, LibraryFP: fp, Err: reason})
		return nil, fmt.Errorf("dist: sim handshake: %s", reason)
	}
	if err := f.send(SimAck{Proto: ProtoVersion, LibraryFP: fp}); err != nil {
		return nil, fmt.Errorf("dist: sim handshake: %w", err)
	}
	conn.SetDeadline(time.Time{})
	if opts.Logf != nil {
		opts.Logf("dist: serving sim lane group %d/%d", h.Group, h.Groups)
	}

	spoke := newSimSpoke(f, h.Group, h.Groups, opts.ExchangeTimeout)
	cfg := h.Job.config()
	cfg.Lib = opts.Library
	cfg.Remote = &simgpu.RemoteTopology{Groups: h.Groups, Group: h.Group, Transport: spoke}
	res, err := simgpu.Run(cfg)
	if err != nil {
		spoke.Abort(err)
		return nil, fmt.Errorf("dist: sim lane group %d: %w", h.Group, err)
	}
	return res, nil
}
