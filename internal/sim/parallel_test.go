package sim

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestRunBeforeStrict pins the strictly-less-than window: events at the
// limit stay queued, events below it fire, and the clock never reaches the
// limit.
func TestRunBeforeStrict(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 3, 4} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	if err := e.RunBefore(3); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("RunBefore(3) fired %v, want [1 2]", fired)
	}
	if e.Now() >= 3 {
		t.Fatalf("clock %v advanced to the limit", e.Now())
	}
	if e.PendingEvents() != 3 {
		t.Fatalf("pending %d, want 3", e.PendingEvents())
	}
	if err := e.Drain(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 {
		t.Fatalf("drain fired %d events, want 5", len(fired))
	}
}

// TestShardSetDeterministicMerge runs the same sharded workload serially and
// concurrently and requires identical per-shard event traces: the OS-level
// interleaving of shard goroutines must be invisible in simulation state.
func TestShardSetDeterministicMerge(t *testing.T) {
	build := func() ([]*Engine, [][]Time) {
		const shards = 8
		engines := make([]*Engine, shards)
		traces := make([][]Time, shards)
		for i := range engines {
			e := New()
			engines[i] = e
			idx := i
			// A chain of self-rescheduling events at shard-specific phase.
			var step func()
			n := 0
			step = func() {
				traces[idx] = append(traces[idx], e.Now())
				n++
				if n < 50 {
					e.After(0.1+float64(idx)*0.01, step)
				}
			}
			e.After(float64(idx)*0.001, step)
		}
		return engines, traces
	}

	e1, t1 := build()
	if err := NewShardSet(e1, 1).Drain(nil, 100); err != nil {
		t.Fatal(err)
	}
	e2, t2 := build()
	if err := NewShardSet(e2, 8).Drain(nil, 100); err != nil {
		t.Fatal(err)
	}
	for i := range t1 {
		if len(t1[i]) != len(t2[i]) {
			t.Fatalf("shard %d: %d vs %d events", i, len(t1[i]), len(t2[i]))
		}
		for j := range t1[i] {
			if t1[i][j] != t2[i][j] {
				t.Fatalf("shard %d event %d: %v vs %v", i, j, t1[i][j], t2[i][j])
			}
		}
	}
}

// TestShardSetCouplingBarrier is the conservative-synchronization property:
// across randomized shard workloads and coupling schedules, at every barrier
// every shard has executed exactly the events strictly before the coupling
// time and none at or after it — no shard ever advances past a pending
// coupling's timestamp.
func TestShardSetCouplingBarrier(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := 2 + rng.Intn(6)
		engines := make([]*Engine, shards)
		// maxFired[i] tracks the latest event time shard i has executed;
		// written only from shard i's engine (single goroutine per shard).
		maxFired := make([]Time, shards)
		for i := range engines {
			e := New()
			engines[i] = e
			idx := i
			events := 20 + rng.Intn(100)
			for k := 0; k < events; k++ {
				at := rng.Float64() * 50
				e.At(at, func() { maxFired[idx] = e.Now() })
			}
		}
		var couplings []Coupling
		var violations []string
		last := 0.0
		for len(couplings) < 1+rng.Intn(5) {
			last += 1 + rng.Float64()*15
			at := last
			couplings = append(couplings, Coupling{At: at, Apply: func(shard int) {
				// At the barrier: the shard must have fired everything
				// strictly below the coupling and nothing at or past it.
				if maxFired[shard] >= at {
					violations = append(violations, "shard past coupling")
				}
				if next := engines[shard].nextEventTime(); next < at {
					violations = append(violations, "shard lagging unfired pre-coupling event")
				}
			}})
		}
		if err := NewShardSet(engines, 4).Drain(couplings, 60); err != nil {
			var de *DeadlineError
			if !errors.As(err, &de) {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if len(violations) > 0 {
			t.Fatalf("seed %d: coupling invariant violated: %v", seed, violations)
		}
	}
}

// nextEventTime returns the earliest queued event's time, +Inf when empty
// (test helper; the barrier hooks run with every shard quiescent).
func (e *Engine) nextEventTime() Time {
	if len(e.queue) == 0 {
		return math.Inf(1)
	}
	return e.queue[0].t
}

// TestShardSetMergedDeadline pins the deterministic merge of per-shard
// horizon overruns: earliest Next wins, Pending and Live sum.
func TestShardSetMergedDeadline(t *testing.T) {
	engines := []*Engine{New(), New(), New()}
	engines[0].At(5, func() {}) // completes before horizon
	engines[1].At(20, func() {})
	engines[1].At(30, func() {})
	engines[2].At(15, func() {})
	err := NewShardSet(engines, 2).Drain(nil, 10)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlineError, got %v", err)
	}
	if de.Next != 15 || de.Pending != 3 || de.Horizon != 10 {
		t.Fatalf("merged deadline %+v, want Next=15 Pending=3 Horizon=10", de)
	}
}

// TestShardSetPoolBarrierStress hammers the persistent worker pool: many
// shards, hundreds of couplings (each a pool round), and repeated Drain
// calls on the same set — under -race this exercises the reusable barrier's
// publication of fn/n/next across rounds and the stop/restart transition.
// It also pins the no-leak property: the pool's workers are joined before
// Drain returns, so goroutine count settles back to its pre-Drain baseline.
func TestShardSetPoolBarrierStress(t *testing.T) {
	const shards = 12
	engines := make([]*Engine, shards)
	counts := make([]int, shards)
	for i := range engines {
		e := New()
		engines[i] = e
		idx := i
		for k := 0; k < 400; k++ {
			e.At(Time(k)*0.25+Time(idx)*0.001, func() { counts[idx]++ })
		}
	}
	var couplings []Coupling
	applied := 0
	for k := 1; k <= 300; k++ {
		couplings = append(couplings, Coupling{At: Time(k) * 0.33, Apply: func(int) { applied++ }})
	}
	baseline := runtime.NumGoroutine()
	set := NewShardSet(engines, 8)
	// Two Drains on one set: the pool must restart cleanly after stopPool.
	// The first horizon lands mid-stream, so a merged DeadlineError (events
	// still pending) is the expected outcome; the second Drain finishes them.
	err := set.Drain(couplings[:150], 49.5)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("first Drain: want *DeadlineError, got %v", err)
	}
	if err := set.Drain(couplings[150:], 1000); err != nil {
		t.Fatal(err)
	}
	if applied != 300*shards {
		t.Fatalf("Apply ran %d times, want %d", applied, 300*shards)
	}
	for i, n := range counts {
		if n != 400 {
			t.Fatalf("shard %d fired %d events, want 400", i, n)
		}
	}
	// Workers are joined at Drain exit; allow brief settling for exiting
	// goroutines whose wg.Done has run but whose stacks haven't unwound.
	for try := 0; try < 100; try++ {
		if runtime.NumGoroutine() <= baseline {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("goroutines %d > baseline %d after Drain: pool leaked", g, baseline)
	}
}

// TestShardSetProcs runs real processes (coroutine-backed) across shards
// concurrently under the race detector: per-shard Sleep chains must finish
// with the per-shard clocks at their own last event.
func TestShardSetProcs(t *testing.T) {
	const shards = 6
	engines := make([]*Engine, shards)
	ticks := make([]int, shards)
	for i := range engines {
		e := New()
		engines[i] = e
		idx := i
		e.Go("worker", func(p *Proc) {
			for k := 0; k < 30; k++ {
				p.Sleep(0.5 + float64(idx)*0.1)
				ticks[idx]++
			}
		})
	}
	set := NewShardSet(engines, shards)
	if err := set.Drain([]Coupling{{At: 3.14}, {At: 7.5}}, 1000); err != nil {
		t.Fatal(err)
	}
	set.Shutdown()
	for i, n := range ticks {
		if n != 30 {
			t.Fatalf("shard %d ran %d ticks, want 30", i, n)
		}
		want := (0.5 + float64(i)*0.1) * 30
		if math.Abs(engines[i].Now()-want) > 1e-9 {
			t.Fatalf("shard %d clock %v, want %v", i, engines[i].Now(), want)
		}
	}
}
