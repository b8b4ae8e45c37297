package sched

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// This file implements the deterministic ordered mailboxes of the sharded
// execution path. Two kinds of cross-module traffic flow through them:
//
//   - posts: events one lane schedules on another (batch hand-off, DAG
//     fan-out and merge hops). They are buffered in the sending lane's
//     outbox and delivered at the window barrier sorted by
//     (virtual time, source module, send sequence).
//   - intents: request terminations (drops and completions) decided inside a
//     window. They are buffered per lane and committed at the barrier sorted
//     by (virtual time, module, decision sequence), so the globally visible
//     Request state — and the order of host OnDrop/OnDone callbacks — is a
//     pure function of the workload, independent of shard count.
//
// The sequential executor path (a ShardedExecutor with one shard) runs the
// exact same machinery single-threaded, which is what makes "sharded ≡
// sequential" hold by construction and lets the differential harness verify
// it empirically.

// post is one cross-lane event in flight.
type post struct {
	src, dst int
	at       time.Duration
	ev       laneEvent
}

// sortPosts orders a merged mailbox by (virtual time, source module). Posts
// are gathered in (source module, send order) sequence, so the stable sort
// yields the full deterministic key (time, module, sequence). The sort is
// slices.SortStableFunc — in-place and reflection-free — so a barrier's
// mailbox merge allocates nothing in steady state.
func sortPosts(posts []post) {
	slices.SortStableFunc(posts, func(a, b post) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.src, b.src)
	})
}

// laneScheduler is what a cluster needs from the executor it is built on:
// per-lane event scheduling from an identified source context, a way for
// hosts to inject arrivals, and the lane engine itself. *ShardedExecutor
// and *Driver implement it; the clock-only executors (TimerExecutor,
// ManualExecutor) do not, and sched.New refuses them.
type laneScheduler interface {
	Executor
	// inject schedules a host event (a request arrival) on lane dst. A
	// Driver accepts it from any goroutine.
	inject(dst int, at time.Duration, ev laneEvent)
	// scheduleLaneEvent schedules ev on lane dst; src is the executing lane
	// or -1 for host/control/barrier context. The event travels by value
	// (typed hot-path ops carry no closure; see laneEvent).
	scheduleLaneEvent(src, dst int, at time.Duration, ev laneEvent)
	// engine returns the lane engine the cluster schedules on and commits
	// through.
	engine() *ShardedExecutor
}

// intent is one deferred request termination.
type intent struct {
	at  time.Duration
	req *Request
	// drop is true for a drop at the module, false for a sink completion.
	drop bool
}

// laneBridge carries the cluster's per-lane deferred state while running on
// a lane-aware executor.
type laneBridge struct {
	cl *Cluster
	// intents[k] holds module k's terminations of the current window, in
	// decision order.
	intents [][]intent
	// retired[k] is module k's lane-local view of requests it terminated in
	// the current window: the deciding lane must see its own drops
	// immediately, while other lanes learn of them at the next barrier (via
	// the committed Request flags). Cleared at every barrier.
	retired []map[*Request]struct{}
	// scratch reuses the merged commit buffer across barriers.
	scratch []mergedIntent
}

// mergedIntent tags an intent with its sort key (module, then per-lane
// decision order preserved by the stable sort).
type mergedIntent struct {
	intent
	mod int
}

func newLaneBridge(cl *Cluster, n int) *laneBridge {
	b := &laneBridge{cl: cl, intents: make([][]intent, n), retired: make([]map[*Request]struct{}, n)}
	for k := range b.retired {
		b.retired[k] = make(map[*Request]struct{})
	}
	return b
}

// add defers one termination decided by module k.
func (b *laneBridge) add(k int, req *Request, at time.Duration, drop bool) {
	b.intents[k] = append(b.intents[k], intent{at: at, req: req, drop: drop})
	b.retired[k][req] = struct{}{}
}

// sees reports whether module k already considers req terminated: globally
// committed, or terminated by k itself inside the current window.
func (b *laneBridge) sees(k int, req *Request) bool {
	_, ok := b.retired[k][req]
	return ok
}

// seesAny reports whether ANY module holds a pending termination for req.
// Control context uses it: a control event runs with every lane parked, so
// a termination it decides at one module is visible to every module for the
// rest of the event, even though it commits only at the hook after it.
func (b *laneBridge) seesAny(req *Request) bool {
	for k := range b.retired {
		if _, ok := b.retired[k][req]; ok {
			return true
		}
	}
	return false
}

// encodeIntents drains the pending intents into their wire shape, gathered
// in (module, decision order) — the same order commit's merge would have
// gathered them. The retired maps stay populated until commitWire applies
// the merged set (the deciding module must keep seeing its own intents
// until the commit makes them globally visible).
func (b *laneBridge) encodeIntents() []WireIntent {
	var out []WireIntent
	for k, list := range b.intents {
		for _, it := range list {
			out = append(out, WireIntent{At: it.at, Mod: int32(k), Req: it.req.ID, Drop: it.drop})
		}
		b.intents[k] = list[:0]
	}
	return out
}

// commitWire applies the all-gathered intents of every lane group in
// (virtual time, module, decision order) order — the identical total order
// a single group's commit produces, because equal (time, module) runs come
// from exactly one group and the concatenation preserves their decision
// order. Wire request IDs resolve onto this group's replica slab.
func (b *laneBridge) commitWire(all []BarrierMsg) error {
	merged := b.scratch[:0]
	for i := range all {
		for _, wi := range all[i].Intents {
			k, err := b.cl.peerModule(wi.Mod, all[i].Group, "intent")
			if err != nil {
				b.scratch = merged[:0]
				return err
			}
			req := b.cl.resolve(wi.Req)
			if req == nil {
				b.scratch = merged[:0]
				return fmt.Errorf("sched: intent for unknown request %d from group %d", wi.Req, all[i].Group)
			}
			merged = append(merged, mergedIntent{intent: intent{at: wi.At, req: req, drop: wi.Drop}, mod: k})
		}
	}
	b.apply(merged)
	return nil
}

// commit applies this window's deferred terminations, gathered in (module,
// decision order).
func (b *laneBridge) commit() {
	merged := b.scratch[:0]
	for k, list := range b.intents {
		for _, it := range list {
			merged = append(merged, mergedIntent{intent: it, mod: k})
		}
		b.intents[k] = list[:0]
	}
	b.apply(merged)
}

// apply commits merged terminations in (virtual time, module, decision
// order) order. Committing sets the shared Request flags (making the
// termination visible to every lane from the next window on), counts the
// drop against the deciding module, and fires the host callback. The first
// intent for a request in commit order wins; later ones — a second branch
// of a DAG deciding to drop the same request inside one window — are
// no-ops, exactly as under sequential execution.
func (b *laneBridge) apply(merged []mergedIntent) {
	b.scratch = merged[:0]
	if len(merged) == 0 {
		return // nothing was decided, so nothing is retired either
	}
	slices.SortStableFunc(merged, func(a, b mergedIntent) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.mod, b.mod)
	})
	for _, m := range merged {
		if m.drop {
			b.cl.commitDrop(m.req, m.mod, m.at)
		} else {
			b.cl.commitComplete(m.req, m.at)
		}
	}
	for k := range b.retired {
		// clear keeps the map's storage, so a steady-state barrier reuses it
		// instead of re-allocating a map per module per window.
		clear(b.retired[k])
	}
}
