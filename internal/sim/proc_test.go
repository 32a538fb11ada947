package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runRecover runs e and returns the value Run panicked with, if any.
func runRecover(e *Engine) (r any) {
	defer func() { r = recover() }()
	_ = e.Run()
	return nil
}

// TestProcPanicSurfacesFromRun: a panicking process surfaces from the Run
// call that resumed it, named, and Shutdown afterwards releases every
// remaining coroutine — the parked process and the idle one alike.
//
// Goroutine counts are compared with "at most the baseline": goroutines of
// earlier tests (a ShardSet pool winding down) may still exit meanwhile.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := New()
	var c Cond
	e.Go("blocked", func(p *Proc) { c.Wait(p) })
	e.Go("finisher", func(p *Proc) { p.Sleep(0.5) }) // leaves an idle coroutine
	e.Go("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	r := runRecover(e)
	msg, _ := r.(string)
	if want := `sim: process "bad" panicked: boom`; !strings.Contains(msg, want) {
		t.Fatalf("Run panicked with %v, want %q", r, want)
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs after panic = %d, want 1 (the blocked process)", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Shutdown = %d, want 0", e.LiveProcs())
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("goroutines = %d after Shutdown, want baseline %d", g, baseline)
	}
}

// TestFinishedCoroutinesAreReused spawns a long chain of short-lived
// processes, one at a time — the AsyncWR writer pattern — and checks that
// they all share one recycled coroutine rather than one each.
func TestFinishedCoroutinesAreReused(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := New()
	const writers = 500
	done := 0
	e.Go("issuer", func(p *Proc) {
		for i := 0; i < writers; i++ {
			e.Go("writer", func(w *Proc) {
				w.Sleep(0.001)
				done++
			})
			p.Sleep(0.01)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != writers {
		t.Fatalf("%d writers finished, want %d", done, writers)
	}
	// The issuer and the writers ran on at most two coroutines, both idle
	// now.
	if n := len(e.idle); n > 2 {
		t.Fatalf("%d idle coroutines after %d spawns, want at most 2", n, writers+1)
	}
	if g := runtime.NumGoroutine(); g > baseline+2 {
		t.Fatalf("goroutines = %d, want at most baseline %d + 2", g, baseline)
	}
	e.Shutdown()
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("goroutines = %d after Shutdown, want baseline %d", g, baseline)
	}
}

// TestShutdownKillsInSpawnOrder: Shutdown unwinds parked processes in spawn
// order, skipping processes that finished (unlinked from the middle of the
// live list), and a process bound to a recycled coroutine but never
// dispatched is retired without running.
func TestShutdownKillsInSpawnOrder(t *testing.T) {
	e := New()
	var c Cond
	var unwound []string
	spawn := func(name string, finish bool) {
		e.Go(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			if finish {
				p.Sleep(1)
				return
			}
			c.Wait(p)
		})
	}
	spawn("a", false)
	spawn("b", true)
	spawn("c", false)
	spawn("d", true)
	spawn("e", false)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ran := false
	e.Go("late", func(p *Proc) { ran = true }) // takes an idle coroutine
	e.Shutdown()
	if ran {
		t.Fatal("a process killed before its first dispatch ran")
	}
	if got, want := strings.Join(unwound, ","), "b,d,a,c,e"; got != want {
		t.Fatalf("unwind order %s, want %s", got, want)
	}
	if e.LiveProcs() != 0 || e.head != nil || e.tail != nil {
		t.Fatalf("live list not empty after Shutdown: %d live", e.LiveProcs())
	}
}

// TestStopReleasesFinishingProcess: a process that stops the engine and then
// returns releases its own coroutine, so nothing is left for Shutdown.
func TestStopReleasesFinishingProcess(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := New()
	e.Go("finisher", func(p *Proc) {}) // idle coroutine before Stop
	e.Go("sleeper", func(p *Proc) { p.Sleep(100) })
	e.Go("stopper", func(p *Proc) {
		p.Sleep(1)
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("goroutines = %d after Stop, want baseline %d", g, baseline)
	}
}

// TestShardSetForwardsProcessPanic: a process panicking on a pool worker
// surfaces from ShardSet.Drain on the caller's goroutine, and Shutdown then
// leaves no worker or coroutine behind.
func TestShardSetForwardsProcessPanic(t *testing.T) {
	baseline := runtime.NumGoroutine()
	engines := make([]*Engine, 4)
	for i := range engines {
		e := New()
		engines[i] = e
		e.Go("worker", func(p *Proc) {
			p.Sleep(float64(i + 1))
			if i == 2 {
				panic("shard boom")
			}
			p.Sleep(10)
		})
	}
	set := NewShardSet(engines, 2)
	r := func() (r any) {
		defer func() { r = recover() }()
		_ = set.Drain([]Coupling{{At: 5}}, 100)
		return nil
	}()
	if msg, _ := r.(string); !strings.Contains(msg, `sim: process "worker" panicked: shard boom`) {
		t.Fatalf("Drain panicked with %v, want the shard's process panic", r)
	}
	set.Shutdown()
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i > 200 {
			t.Fatalf("goroutines = %d, want baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
