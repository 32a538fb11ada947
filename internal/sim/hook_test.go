package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// hookLog records, in order, the events and hook runs of one scenario as
// "name@time" strings.
type hookLog struct {
	e   *Engine
	got []string
}

func (h *hookLog) event(name string) func() {
	return func() { h.got = append(h.got, fmt.Sprintf("%s@%g", name, h.e.Now())) }
}

func (h *hookLog) check(t *testing.T, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(h.got, want) {
		t.Fatalf("order = %v, want %v", h.got, want)
	}
}

// TestBeforeAdvanceRunUntil: a hook armed at an instant runs after every
// event of that instant (including one scheduled at the same instant after
// arming) and before the clock moves to the next event.
func TestBeforeAdvanceRunUntil(t *testing.T) {
	e := New()
	h := &hookLog{e: e}
	e.At(1, func() {
		h.event("a")()
		e.BeforeAdvance(h.event("hook"))
		e.At(1, h.event("b"))
	})
	e.At(1, h.event("c"))
	e.At(2, h.event("d"))
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	h.check(t, "a@1", "c@1", "b@1", "hook@1", "d@2")
}

// TestBeforeAdvanceBeforeReturn: a hook runs before the loop returns, both
// when the queue empties and when the next event lies past the limit.
func TestBeforeAdvanceBeforeReturn(t *testing.T) {
	e := New()
	h := &hookLog{e: e}
	e.At(1, func() { e.BeforeAdvance(h.event("hook")) })
	e.At(3, h.event("late"))
	if err := e.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	h.check(t, "hook@1")
	e.At(3, func() { e.BeforeAdvance(h.event("last")) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	h.check(t, "hook@1", "late@3", "last@3")
	// Armed outside any run: the next run call flushes it before anything.
	e.BeforeAdvance(h.event("idle"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	h.check(t, "hook@1", "late@3", "last@3", "idle@3")
}

// TestBeforeAdvanceNested: a hook armed by a running hook runs in the same
// pass, after the hooks armed before it, and still before the clock moves.
func TestBeforeAdvanceNested(t *testing.T) {
	e := New()
	h := &hookLog{e: e}
	e.At(1, func() {
		e.BeforeAdvance(func() {
			h.event("outer")()
			e.BeforeAdvance(h.event("inner"))
		})
		e.BeforeAdvance(h.event("second"))
	})
	e.At(2, h.event("next"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	h.check(t, "outer@1", "second@1", "inner@1", "next@2")
}

// TestBeforeAdvanceRunBeforeLimit: in RunBefore the hook runs before the
// limit check, so an event the hook schedules below the limit still runs in
// the same call, while one at the limit stays queued.
func TestBeforeAdvanceRunBeforeLimit(t *testing.T) {
	e := New()
	h := &hookLog{e: e}
	e.At(1, func() {
		e.BeforeAdvance(func() {
			e.At(2, h.event("below"))
			e.At(3, h.event("at"))
		})
	})
	if err := e.RunBefore(3); err != nil {
		t.Fatal(err)
	}
	h.check(t, "below@2")
	if e.Now() != 2 || e.PendingEvents() != 1 {
		t.Fatalf("now=%v pending=%d, want 2 and 1", e.Now(), e.PendingEvents())
	}
}

// TestBeforeAdvanceStep: Step never runs a hook while events remain at the
// current instant, and runs it before returning once the instant has ended.
func TestBeforeAdvanceStep(t *testing.T) {
	e := New()
	h := &hookLog{e: e}
	e.At(1, func() { e.BeforeAdvance(h.event("hook")) })
	e.At(1, h.event("a"))
	e.At(2, h.event("b"))
	if !e.Step() {
		t.Fatal("no event")
	}
	h.check(t) // "a" still pending at t=1
	if !e.Step() {
		t.Fatal("no event")
	}
	h.check(t, "a@1", "hook@1")
	if !e.Step() || e.Step() {
		t.Fatal("want exactly one more event")
	}
	h.check(t, "a@1", "hook@1", "b@2")
}

// TestBeforeAdvanceDrain: Drain goes through RunUntil, so a hook that
// schedules work keeps the drain going until that work is done.
func TestBeforeAdvanceDrain(t *testing.T) {
	e := New()
	h := &hookLog{e: e}
	e.At(1, func() { e.BeforeAdvance(func() { e.At(4, h.event("scheduled")) }) })
	if err := e.Drain(10); err != nil {
		t.Fatal(err)
	}
	h.check(t, "scheduled@4")
}

// TestBeforeAdvanceInterruptKeepsHook: an interrupted loop returns with the
// hook still armed, and the resumed run runs it at the same point.
func TestBeforeAdvanceInterruptKeepsHook(t *testing.T) {
	e := New()
	h := &hookLog{e: e}
	e.At(1, func() { e.BeforeAdvance(h.event("hook")) })
	e.At(1, h.event("a"))
	e.At(2, h.event("b"))
	stop := false
	e.SetInterrupt(1, func() bool { return stop })
	if !e.Step() {
		t.Fatal("no event")
	}
	stop = true
	if err := e.RunUntil(5); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	h.check(t)
	stop = false
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	h.check(t, "a@1", "hook@1", "b@2")
}

// TestBeforeAdvanceZeroAlloc: arming a cached hook once per instant does not
// allocate once the hook slice has grown.
func TestBeforeAdvanceZeroAlloc(t *testing.T) {
	e := New()
	hook := func() {}
	fn := func() { e.BeforeAdvance(hook) }
	e.After(1, fn)
	e.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("arm+step allocates %v per instant, want 0", allocs)
	}
}
