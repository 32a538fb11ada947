package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/hybridmig/hybridmig/internal/sim"
)

// This file covers instant-coalesced refills: starts at one instant share a
// single max-min refill, run by the engine's BeforeAdvance hook before the
// clock moves on, and every read or other mutation flushes first.

// stripedFanIn builds the pvfs-shared pattern: clients striping over every
// server, each flow crossing one client NIC and one server NIC.
func stripedFanIn(clients, servers int) (cl, sv []*Link) {
	for i := 0; i < clients; i++ {
		cl = append(cl, NewLink(fmt.Sprintf("client%d", i), 100))
	}
	for i := 0; i < servers; i++ {
		sv = append(sv, NewLink(fmt.Sprintf("server%d", i), 150))
	}
	return cl, sv
}

// TestSameInstantStartsShareOneRefill: N striped starts at one instant cost
// exactly one refill, a lone start at a later instant costs one more, and
// both leave the allocation equal to the waterfilling oracle.
func TestSameInstantStartsShareOneRefill(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	cl, sv := stripedFanIn(6, 4)
	e.At(1, func() {
		for _, c := range cl {
			for _, s := range sv {
				n.Start(&Flow{Links: []*Link{c, s}, Size: 1e6})
			}
		}
	})
	if err := e.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Starts != 24 || st.Refills != 1 {
		t.Fatalf("after 24 same-instant starts: %+v, want 24 starts and 1 refill", st)
	}
	if st.FlowsVisited != 24 || st.LinksVisited != 10 {
		t.Fatalf("refill visited %d flows and %d links, want 24 and 10", st.FlowsVisited, st.LinksVisited)
	}
	checkHookRates(t, n, "striped instant")

	e.At(2, func() { n.Start(&Flow{Links: []*Link{NewLink("solo", 10)}, Size: 1e6}) })
	if err := e.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.Starts != 25 || st.Refills != 2 {
		t.Fatalf("after a lone start: %+v, want 25 starts and 2 refills", st)
	}
	checkHookRates(t, n, "lone start")
	e.Stop()
}

// TestReadFlushesPendingStarts: a read between starts at one instant sees
// the allocation of the flows started so far, and splits the instant's
// refill in two.
func TestReadFlushesPendingStarts(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 100)
	f1 := &Flow{Links: []*Link{l}, Size: 1e6}
	n.Start(f1)
	if got := f1.Rate(); got != 100 {
		t.Fatalf("lone flow rate = %v, want 100", got)
	}
	f2 := &Flow{Links: []*Link{l}, Size: 1e6}
	n.Start(f2)
	if got := l.Bytes(); got != 0 {
		t.Fatalf("bytes at t=0 = %v, want 0", got)
	}
	if !near(f1.Rate(), 50) || !near(f2.Rate(), 50) {
		t.Fatalf("rates = %v, %v, want 50, 50", f1.Rate(), f2.Rate())
	}
	if st := n.Stats(); st.Refills != 2 {
		t.Fatalf("refills = %d, want 2 (one per read that found pending starts)", st.Refills)
	}
	e.Stop()
}

// checkHookRates asserts the instant's refill already ran (nothing pending)
// and compares the unflushed allocation with the waterfilling oracle.
func checkHookRates(t *testing.T, n *Net, op string) {
	t.Helper()
	if len(n.pending) != 0 {
		t.Fatalf("after %s: %d starts still pending after the instant ended", op, len(n.pending))
	}
	want := referenceMaxMin(n)
	for _, f := range n.flows {
		got, w := f.rate, want[f] // f.rate, not Rate(): a read would flush
		if math.Abs(got-w) > 1e-6*math.Max(math.Abs(w), 1) {
			t.Fatalf("after %s: flow seq%d rate %v, waterfilling oracle %v", op, f.seq, got, w)
		}
	}
}

// TestCoalescedBatchesMatchWaterfilling drives randomized batches of
// same-instant starts, cancels and capacity changes, split over several
// events at each instant, and checks the allocation against the
// waterfilling oracle once each instant has ended — without a flushing
// read, so a refill the hook failed to run shows up as a stale rate.
func TestCoalescedBatchesMatchWaterfilling(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := sim.New()
			n := NewNet(e)
			links := make([]*Link, 3+rng.Intn(6))
			for i := range links {
				links[i] = NewLink(fmt.Sprintf("l%d", i), 50+150*rng.Float64())
			}
			op := func() {
				switch k := rng.Intn(10); {
				case k < 7:
					f := &Flow{Size: 10 + 500*rng.Float64()}
					if rng.Intn(2) == 0 {
						f.Links = []*Link{links[0]} // hub: many flows, one bottleneck
					} else {
						for _, i := range rng.Perm(len(links))[:1+rng.Intn(3)] {
							f.Links = append(f.Links, links[i])
						}
					}
					if rng.Intn(4) == 0 {
						f.MaxRate = 5 + 90*rng.Float64()
					}
					n.Start(f)
				case k < 9:
					if len(n.flows) > 0 {
						n.Cancel(n.flows[rng.Intn(len(n.flows))])
					}
				default:
					n.SetCapacity(links[rng.Intn(len(links))], 20+280*rng.Float64())
				}
			}
			at := 0.0
			for instant := 0; instant < 60; instant++ {
				at += 0.05 + rng.Float64()
				for ev := 1 + rng.Intn(3); ev > 0; ev-- {
					ops := 1 + rng.Intn(6)
					e.At(at, func() {
						for i := 0; i < ops; i++ {
							op()
						}
					})
				}
				if err := e.RunUntil(at); err != nil {
					t.Fatal(err)
				}
				checkHookRates(t, n, fmt.Sprintf("instant %d at %g", instant, at))
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if len(n.flows) != 0 || len(n.pending) != 0 {
				t.Fatalf("drained with %d active and %d pending flows", len(n.flows), len(n.pending))
			}
		})
	}
}

// TestShardSetRefillSweepBeforeCoupling: a refill run by the hook at the
// last instant before a coupling schedules a completion sweep below the
// coupling time, and that sweep still runs in the same ShardSet round, so
// every shard has finished its flow by the barrier.
func TestShardSetRefillSweepBeforeCoupling(t *testing.T) {
	const shards = 3
	engines := make([]*sim.Engine, shards)
	done := make([]bool, shards)
	for i := range engines {
		e := sim.New()
		n := NewNet(e)
		l := NewLink(fmt.Sprintf("l%d", i), 100)
		i := i
		e.At(0.25, func() {
			n.Start(&Flow{Links: []*Link{l}, Size: 50, OnDone: func() { done[i] = true }}) // drains at 0.75
		})
		engines[i] = e
	}
	var atBarrier []bool
	couplings := []sim.Coupling{{At: 1, Apply: func(shard int) {
		atBarrier = append(atBarrier, done[shard])
	}}}
	if err := sim.NewShardSet(engines, 2).Drain(couplings, 10); err != nil {
		t.Fatal(err)
	}
	for i, ok := range atBarrier {
		if !ok {
			t.Fatalf("shard %d: flow not finished at the coupling barrier", i)
		}
	}
	if len(atBarrier) != shards {
		t.Fatalf("Apply ran for %d shards, want %d", len(atBarrier), shards)
	}
}
