package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the component-parallel execution layer: a ShardSet runs a set
// of independent Engines — one per connected component of the simulated
// system — concurrently, with conservative synchronization only at known
// coupling timestamps.
//
// The model is conservative parallel DES in its simplest sound form. Each
// shard owns a disjoint slice of simulation state (its own event heap, clock,
// and processes), so between coupling points the shards cannot affect each
// other and may free-run. A Coupling is a virtual-time instant at which some
// globally coordinated change happens (a scripted fabric capacity step, for
// example, replicated into every shard). Before such an instant, every shard
// is advanced with Engine.RunBefore — which executes events strictly below
// the coupling time — and only once ALL shards have aligned does any shard
// process the coupling itself. No shard ever advances past a pending
// coupling's timestamp; Drain enforces that invariant and fails loudly if it
// is ever violated.
//
// Determinism: each shard's event order is exactly the serial engine's order
// for that shard's events (same heap, same (t, seq) tie-break), regardless of
// how the OS schedules the shard goroutines; results are collected by shard
// index. The only cross-shard nondeterminism is wall-clock interleaving,
// which no simulation state depends on.

// Coupling is one synchronization point of a sharded run: an instant of
// virtual time that every shard must reach (exclusively) before any shard
// may proceed through it. The coupled action itself is expected to be
// pre-scheduled on each affected shard's engine (an Engine.At timer at the
// coupling time); Apply is an optional hook run at the barrier.
type Coupling struct {
	// At is the coupling's virtual-time instant.
	At Time
	// Apply, when non-nil, is called once per shard (in shard-index order,
	// from the coordinating goroutine) after every shard has aligned
	// strictly before At and before any shard advances to it.
	Apply func(shard int)
}

// ShardSet drives a set of per-component engines through a horizon with
// conservative synchronization at coupling timestamps.
//
// Shard work is executed by a pool of persistent workers that live for the
// duration of one Drain: they are spawned once at the first parallel round
// and then parked at a reusable barrier between rounds, so a run with one
// coupling per fabric step pays goroutine creation once, not once per
// barrier. Error scratch is pooled on the set for the same reason.
type ShardSet struct {
	engines []*Engine
	workers int
	errs    []error // pooled per-drain scratch
	panics  []any   // per-shard panics of the current round, pool workers only

	// Persistent worker pool. Guarded by mu; work parks workers between
	// rounds, idle parks the coordinator until the round completes.
	mu      sync.Mutex
	work    sync.Cond
	idle    sync.Cond
	round   uint64
	stopped bool
	fn      func(int)
	n       int
	next    atomic.Int64
	running int
	spawned int
	wg      sync.WaitGroup
}

// NewShardSet returns a shard set over the given engines. workers bounds the
// number of shards executing concurrently; values <= 0 use GOMAXPROCS.
func NewShardSet(engines []*Engine, workers int) *ShardSet {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &ShardSet{engines: engines, workers: workers}
	s.work.L = &s.mu
	s.idle.L = &s.mu
	return s
}

// Shards returns the number of shards.
func (s *ShardSet) Shards() int { return len(s.engines) }

// each runs fn(i) for every shard index, at most s.workers concurrently, and
// returns when all have finished. Shard indices are claimed from a shared
// counter, so completion order is nondeterministic but coverage is total.
// Parallel rounds are dispatched to the persistent pool, started lazily.
func (s *ShardSet) each(fn func(i int)) {
	n := len(s.engines)
	w := s.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if s.spawned == 0 {
		s.startPool(w)
	}
	s.runRound(fn, n)
}

// startPool spawns w persistent workers parked at the round barrier.
func (s *ShardSet) startPool(w int) {
	s.stopped = false
	s.spawned = w
	s.wg.Add(w)
	for k := 0; k < w; k++ {
		go s.worker()
	}
}

// worker is the persistent pool loop: wait for a round (or stop), claim
// shard indices from the shared counter until exhausted, report completion.
func (s *ShardSet) worker() {
	defer s.wg.Done()
	var seen uint64
	for {
		s.mu.Lock()
		for !s.stopped && s.round == seen {
			s.work.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		seen = s.round
		fn, n := s.fn, s.n
		s.mu.Unlock()
		for {
			i := int(s.next.Add(1))
			if i >= n {
				break
			}
			s.call(fn, i)
		}
		s.mu.Lock()
		s.running--
		if s.running == 0 {
			s.idle.Signal()
		}
		s.mu.Unlock()
	}
}

// call runs one shard's work on a pool worker, recording a panic (a
// simulation process's included) against the shard instead of letting it
// crash the worker.
func (s *ShardSet) call(fn func(int), i int) {
	defer func() {
		if r := recover(); r != nil {
			s.panics[i] = r
		}
	}()
	fn(i)
}

// runRound publishes one round of work to the pool and waits for it to
// complete. The coordinator never mutates round state while workers run. A
// shard that panicked re-raises its panic here, on the coordinating
// goroutine, once the round is over (the lowest shard index wins).
func (s *ShardSet) runRound(fn func(int), n int) {
	if len(s.panics) < n {
		s.panics = make([]any, n)
	}
	s.mu.Lock()
	s.fn, s.n = fn, n
	s.next.Store(-1)
	s.running = s.spawned
	s.round++
	s.work.Broadcast()
	for s.running > 0 {
		s.idle.Wait()
	}
	s.fn = nil
	s.mu.Unlock()
	for _, r := range s.panics[:n] {
		if r != nil {
			clear(s.panics)
			panic(r)
		}
	}
}

// stopPool retires the persistent workers and joins them.
func (s *ShardSet) stopPool() {
	if s.spawned == 0 {
		return
	}
	s.mu.Lock()
	s.stopped = true
	s.work.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.spawned = 0
}

// Drain advances every shard to the horizon, synchronizing at each coupling:
// all shards run strictly up to the coupling time, the barrier is joined,
// Apply hooks run, and only then does any shard proceed. After the last
// coupling the shards drain independently to the horizon. Couplings must be
// sorted by ascending At.
//
// The error is the deterministic merge of the per-shard outcomes: ErrStopped
// if any shard was stopped, else a single *DeadlineError summing the stuck
// work across shards (Next is the earliest pending event anywhere), else nil.
func (s *ShardSet) Drain(couplings []Coupling, horizon Time) error {
	defer s.stopPool()
	if cap(s.errs) < len(s.engines) {
		s.errs = make([]error, len(s.engines))
	}
	errs := s.errs[:len(s.engines)]
	for i := range errs {
		errs[i] = nil
	}
	for _, c := range couplings {
		if c.At > horizon {
			break
		}
		at := c.At
		s.each(func(i int) { errs[i] = s.engines[i].RunBefore(at) })
		if err := firstError(errs); err != nil {
			return err
		}
		// Barrier invariant: no shard's clock may have reached the pending
		// coupling's timestamp. RunBefore makes this structurally true; the
		// check makes a future regression loud instead of silently racy.
		for i, e := range s.engines {
			if e.Now() >= at {
				return fmt.Errorf("sim: shard %d advanced to %v past pending coupling at %v", i, e.Now(), at)
			}
		}
		if c.Apply != nil {
			for i := range s.engines {
				c.Apply(i)
			}
		}
	}
	s.each(func(i int) { errs[i] = s.engines[i].Drain(horizon) })
	return s.mergeDrain(errs, horizon)
}

// firstError returns the first non-nil error by shard index.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeDrain folds per-shard Drain outcomes into one deterministic error:
// any non-deadline error wins (lowest shard index), otherwise the deadline
// errors are merged with the earliest Next and summed Pending/Live.
func (s *ShardSet) mergeDrain(errs []error, horizon Time) error {
	merged := &DeadlineError{Horizon: horizon, Next: math.Inf(1)}
	hit := false
	for _, err := range errs {
		if err == nil {
			continue
		}
		de, ok := err.(*DeadlineError)
		if !ok {
			return err
		}
		hit = true
		if de.Next < merged.Next {
			merged.Next = de.Next
		}
		merged.Pending += de.Pending
		merged.Live += de.Live
	}
	if !hit {
		return nil
	}
	return merged
}

// Shutdown releases every shard's remaining process coroutines (engines are
// shut down in shard order; each engine's own kill order is its spawn order).
func (s *ShardSet) Shutdown() {
	for _, e := range s.engines {
		e.Shutdown()
	}
}
