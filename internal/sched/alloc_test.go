package sched

import (
	"testing"
	"time"
)

// These tests pin the allocation floors the engine-flip refactor bought:
// typed laneEvents travel by value through lane queues, outboxes, and the
// barrier mailbox, and the intent bridge recycles its merge scratch and
// retired maps — so the steady-state hot path allocates nothing per event.
// A regression that reintroduces a per-event closure, a per-barrier sort
// copy, or a per-window map shows up here as a nonzero floor.

// TestAllocsEventDispatch: pushing a laneEvent into a warmed lane and firing
// it allocates nothing.
func TestAllocsEventDispatch(t *testing.T) {
	l := newLaneState(0)
	fired := 0
	ev := laneEvent{name: "tick", fn: func(now time.Duration) { fired++ }}

	// Warm the queue's backing array past the test's working set.
	for i := 0; i < 64; i++ {
		l.push(time.Duration(i), ev)
	}
	l.run(0, 1<<62)

	at := time.Duration(64)
	avg := testing.AllocsPerRun(200, func() {
		l.push(at, ev)
		l.run(at, at+1)
		at++
	})
	if avg != 0 {
		t.Fatalf("lane event dispatch allocates %.1f per event, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("events never fired")
	}
}

// TestAllocsScheduleEventLanePath: Cluster.scheduleEvent with the lane
// scheduler wired allocates nothing per event: the by-value event must
// never be forced to escape at scheduleEvent entry.
func TestAllocsScheduleEventLanePath(t *testing.T) {
	x := NewShardedExecutor(2, 1, time.Millisecond)
	x.running = true
	cl := &Cluster{ls: x}
	fired := 0
	ev := laneEvent{name: "hop", fn: func(now time.Duration) { fired++ }}

	for i := 0; i < 64; i++ {
		cl.scheduleEvent(0, 1, time.Duration(i), ev)
	}
	x.flushOutboxes()
	x.lanes[1].run(0, 1<<62)

	at := time.Duration(1 << 20)
	avg := testing.AllocsPerRun(200, func() {
		cl.scheduleEvent(0, 1, at, ev)
		x.flushOutboxes()
		x.lanes[1].run(at, at+1)
		at++
	})
	if avg != 0 {
		t.Fatalf("lane-path scheduleEvent allocates %.1f per event, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("events never fired")
	}
}

// TestAllocsMailboxCommit: a full cross-lane round trip — outbox post,
// barrier mailbox merge, destination dispatch — plus a laneBridge intent
// commit, all at zero allocations per event in steady state.
func TestAllocsMailboxCommit(t *testing.T) {
	x := NewShardedExecutor(2, 1, time.Millisecond)
	x.running = true // cross-lane sends take the outbox path only while running
	fired := 0
	ev := laneEvent{name: "hop", fn: func(now time.Duration) { fired++ }}

	// Warm outbox, mailbox, and destination queue storage.
	for i := 0; i < 64; i++ {
		x.scheduleLaneEvent(0, 1, time.Duration(i), ev)
	}
	x.flushOutboxes()
	x.lanes[1].run(0, 1<<62)

	at := time.Duration(1 << 20)
	avg := testing.AllocsPerRun(200, func() {
		x.scheduleLaneEvent(0, 1, at, ev)
		x.flushOutboxes()
		x.lanes[1].run(at, at+1)
		at++
	})
	if avg != 0 {
		t.Fatalf("cross-lane mailbox round trip allocates %.1f per event, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("posted events never fired")
	}

	// Intent commit: the bridge's merge scratch and retired maps must be
	// reused across barriers. The cluster here is a shell — commit only
	// touches module drop counters and the (nil) host callbacks.
	cl := &Cluster{modules: []*module{{}, {}}}
	b := newLaneBridge(cl, 2)
	req := &Request{ID: 1}
	b.add(0, req, 1, true)
	b.add(1, req, 1, false)
	b.commit()

	now := time.Duration(1)
	avg = testing.AllocsPerRun(200, func() {
		req.Dropped, req.Finished = false, false
		b.add(0, req, now, true)
		b.add(1, req, now+1, false)
		b.commit()
		now++
	})
	if avg != 0 {
		t.Fatalf("intent commit allocates %.1f per barrier, want 0", avg)
	}
}
