package simgpu

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/sched"
)

// badPeer wraps one group's real lane-group endpoint and, on the first
// exchange of the configured kind, rewrites the peer group's contribution
// as that group sees it. The rewrite clips before appending, so the peer's
// own copy of the message stays intact.
type badPeer struct {
	sched.Transport
	peer    int
	board   func(*sched.BoardMsg)
	scale   func(*sched.ScaleMsg)
	barrier func(*sched.BarrierMsg)
	finish  func(*sched.FinishMsg)
}

func (b *badPeer) Board(m sched.BoardMsg) ([]sched.BoardMsg, error) {
	all, err := b.Transport.Board(m)
	if err == nil && b.board != nil {
		b.board(&all[b.peer])
		b.board = nil
	}
	return all, err
}

func (b *badPeer) Scale(m sched.ScaleMsg) ([]sched.ScaleMsg, error) {
	all, err := b.Transport.Scale(m)
	if err == nil && b.scale != nil {
		b.scale(&all[b.peer])
		b.scale = nil
	}
	return all, err
}

func (b *badPeer) Barrier(m sched.BarrierMsg) ([]sched.BarrierMsg, error) {
	all, err := b.Transport.Barrier(m)
	if err == nil && b.barrier != nil {
		b.barrier(&all[b.peer])
		b.barrier = nil
	}
	return all, err
}

func (b *badPeer) Finish(m sched.FinishMsg) ([]sched.FinishMsg, error) {
	all, err := b.Transport.Finish(m)
	if err == nil && b.finish != nil {
		b.finish(&all[b.peer])
		b.finish = nil
	}
	return all, err
}

// TestPeerModuleIndexRejected feeds group 0 of a 2-group TM run (modules 0
// and 2 on group 0, module 1 on group 1) one peer message per exchange kind
// whose module index is out of range. Every case must abort the run with an
// error on group 0 instead of indexing past the module table.
func TestPeerModuleIndexRejected(t *testing.T) {
	cases := []struct {
		name string
		bad  badPeer
	}{
		{"board/99", badPeer{board: func(m *sched.BoardMsg) {
			m.Rows = append(slices.Clip(m.Rows), sched.WireBoardRow{Mod: 99})
		}}},
		{"board/-1", badPeer{board: func(m *sched.BoardMsg) {
			m.Rows = append(slices.Clip(m.Rows), sched.WireBoardRow{Mod: -1})
		}}},
		{"scale/99", badPeer{scale: func(m *sched.ScaleMsg) {
			m.Rows = append(slices.Clip(m.Rows), sched.WireScaleRow{Mod: 99, Desired: 1})
		}}},
		{"scale/-1", badPeer{scale: func(m *sched.ScaleMsg) {
			m.Rows = append(slices.Clip(m.Rows), sched.WireScaleRow{Mod: -1, Desired: 1})
		}}},
		{"barrier-post/98", badPeer{barrier: func(m *sched.BarrierMsg) {
			m.Posts = append(slices.Clip(m.Posts), sched.WirePost{At: time.Second, Src: 1, Dst: 98, Req: 0})
		}}},
		{"barrier-intent/99", badPeer{barrier: func(m *sched.BarrierMsg) {
			m.Intents = append(slices.Clip(m.Intents), sched.WireIntent{Mod: 99, Req: 0, Drop: true})
		}}},
		{"barrier-intent/-1", badPeer{barrier: func(m *sched.BarrierMsg) {
			m.Intents = append(slices.Clip(m.Intents), sched.WireIntent{Mod: -1, Req: 0, Drop: true})
		}}},
		{"finish/-1", badPeer{finish: func(m *sched.FinishMsg) {
			m.Reports = slices.Clone(m.Reports)
			m.Reports[0].Mod = -1
		}}},
		{"finish/99", badPeer{finish: func(m *sched.FinishMsg) {
			m.Reports = slices.Clone(m.Reports)
			m.Reports[0].Mod = 99
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trs := sched.NewMemTransports(2)
			bad := tc.bad
			bad.Transport, bad.peer = trs[0], 1
			endpoints := []sched.Transport{&bad, trs[1]}
			errs := make([]error, 2)
			done := make(chan struct{})
			var wg sync.WaitGroup
			for g, tr := range endpoints {
				cfg := Config{
					Spec:       pipeline.TM(),
					PolicyName: "pard",
					Trace:      steadyTrace(100, 4*time.Second, 5),
					Seed:       3,
					SyncPeriod: 250 * time.Millisecond,
					Remote:     &RemoteTopology{Groups: 2, Group: g, Transport: tr},
				}
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					_, errs[g] = Run(cfg)
				}(g)
			}
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("lane groups hung instead of aborting")
			}
			if err := errs[0]; err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("group 0 error = %v, want a module index out of range", err)
			}
		})
	}
}
