// Package benchscen holds the benchmark scenario bodies shared by the
// package benchmarks (internal/flow, internal/sim) and cmd/benchreport, so
// `go test -bench` and BENCH.json always measure the same thing.
package benchscen

import (
	"fmt"
	"testing"

	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// FlowChurn measures one flow start+cancel against a standing population:
// the allocator's reaction to churn. With disjoint links the churned flow's
// component has one member, so the cost must stay flat as the population
// grows; with one shared link every flow is in the component and linear
// cost is expected and allowed.
func FlowChurn(b *testing.B, flows int, shared bool) {
	e := sim.New()
	n := flow.NewNet(e)
	var churnPath []*flow.Link
	if shared {
		l := flow.NewLink("shared", 1e9)
		for i := 0; i < flows; i++ {
			n.Start(&flow.Flow{Links: []*flow.Link{l}, Size: 1e15})
		}
		churnPath = []*flow.Link{l}
	} else {
		for i := 0; i < flows; i++ {
			l := flow.NewLink(fmt.Sprintf("l%d", i), 1e9)
			n.Start(&flow.Flow{Links: []*flow.Link{l}, Size: 1e15})
		}
		churnPath = []*flow.Link{flow.NewLink("churn", 1e9)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := n.AcquireFlow()
		f.Links = churnPath
		f.Size = 1e15
		n.Start(f)
		n.Cancel(f)
		n.ReleaseFlow(f)
	}
	b.StopTimer()
	e.Stop()
}

// AfterFire is the headline event-path scenario: schedule one timer and
// fire it. Must run at 0 allocs/op (pooled event records, value Timer
// handles).
func AfterFire(b *testing.B) {
	e := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		if !e.Step() {
			b.Fatal("no event fired")
		}
	}
}

// ParallelComponents measures a ShardSet drain over `shards` independent
// engines, each working through a self-rescheduling event chain, with three
// coupling barriers along the way — the sharded kernel's per-event overhead
// plus its conservative synchronization cost. shards=1 is the degenerate
// single-component case and isolates the ShardSet bookkeeping itself.
func ParallelComponents(b *testing.B, shards int) {
	const (
		events  = 2000
		horizon = sim.Time(1000)
	)
	couplings := []sim.Coupling{{At: 250}, {At: 500}, {At: 750}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engines := make([]*sim.Engine, shards)
		for s := range engines {
			e := sim.New()
			remaining := events
			var tick func()
			tick = func() {
				if remaining--; remaining > 0 {
					e.After(0.4, tick)
				}
			}
			e.After(0.4, tick)
			engines[s] = e
		}
		set := sim.NewShardSet(engines, shards)
		if err := set.Drain(couplings, horizon); err != nil {
			b.Fatal(err)
		}
		set.Shutdown()
	}
}

// ProcPingPong measures the process handoff round trip: one sleeping
// process resumed once per iteration, parking again straight away.
func ProcPingPong(b *testing.B) {
	e := sim.New()
	stop := false
	e.Go("pinger", func(p *sim.Proc) {
		for !stop {
			p.Sleep(1)
		}
	})
	e.Step() // the process reaches its first sleep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("no event")
		}
	}
	b.StopTimer()
	stop = true
	e.Step()
	e.Shutdown()
}

// ProcSpawn measures a short-lived process's whole life — spawn, first
// dispatch, one sleep, finish — the pattern of the AsyncWR workload, which
// spawns one writer process per buffer.
func ProcSpawn(b *testing.B) {
	e := sim.New()
	writer := func(p *sim.Proc) { p.Sleep(1) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Go("writer", writer)
		if !e.Step() || !e.Step() {
			b.Fatal("no event")
		}
	}
	b.StopTimer()
	if e.LiveProcs() != 0 {
		b.Fatalf("%d writers still live", e.LiveProcs())
	}
	e.Shutdown()
}

// TimerChurn mixes scheduling, eager cancellation, and firing against a
// standing population of pending timers — the pattern the flow layer's
// completion rescheduling produces.
func TimerChurn(b *testing.B) {
	e := sim.New()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		e.After(1e9+float64(i), fn) // standing population, never fires
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := e.After(1, fn)
		t2 := e.After(2, fn)
		e.After(0.5, fn)
		if !t1.Cancel() || !t2.Cancel() {
			b.Fatal("cancel failed")
		}
		if !e.Step() {
			b.Fatal("no event fired")
		}
	}
}
