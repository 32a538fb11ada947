package flow

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/hybridmig/hybridmig/internal/sim"
)

// This file is the property suite for the component partition detector — the
// machinery the parallel kernel's planner trusts to decide which flows can
// never interact. Randomized link/flow graphs are driven through scripted
// starts, cancels, completions, and capacity changes; after every operation
// the epoch/BFS detector (resetComponent/seedFlow/seedLinks/expandComponent,
// with its incrementally maintained transparency bounds) is compared against
// a brute-force union-find over ceilings recomputed from scratch.

// detectorComponent probes the production detector: the BFS closure from f
// over non-transparent shared links, exactly as Start/Cancel/SetCapacity
// collect it. The probe only bumps the collection epoch; it never refills.
func detectorComponent(n *Net, f *Flow) map[*Flow]bool {
	n.resetComponent()
	n.seedFlow(f)
	n.seedLinks(f.Links)
	n.expandComponent()
	set := make(map[*Flow]bool, len(n.compFlows))
	for _, g := range n.compFlows {
		set[g] = true
	}
	return set
}

// bruteCeiling recomputes from scratch the flow's provable rate ceiling as
// seen from link l (the mirror of Flow.ubFor, without the cached
// minCap/minCap2 state).
func bruteCeiling(f *Flow, l *Link) float64 {
	c := math.Inf(1)
	for _, o := range f.Links {
		if o != l && o.Capacity < c {
			c = o.Capacity
		}
	}
	if f.MaxRate > 0 && f.MaxRate < c {
		c = f.MaxRate
	}
	return c
}

// bruteOpaque recomputes link transparency from scratch: the link can bind
// only if the crossing flows could jointly saturate it.
func bruteOpaque(l *Link) bool {
	sum := 0.0
	for _, f := range l.flows {
		u := bruteCeiling(f, l)
		if math.IsInf(u, 1) {
			return true
		}
		sum += u
	}
	return sum > l.Capacity*ubMarginFactor
}

// bruteComponents partitions the active flows by union-find: two flows are
// united iff they share a link that bruteOpaque says could bind.
func bruteComponents(n *Net) map[*Flow]*Flow {
	parent := make(map[*Flow]*Flow, len(n.flows))
	for _, f := range n.flows {
		parent[f] = f
	}
	var find func(f *Flow) *Flow
	find = func(f *Flow) *Flow {
		if parent[f] != f {
			parent[f] = find(parent[f])
		}
		return parent[f]
	}
	seen := make(map[*Link]bool)
	for _, f := range n.flows {
		for _, l := range f.Links {
			if seen[l] {
				continue
			}
			seen[l] = true
			if !bruteOpaque(l) {
				continue
			}
			for _, g := range l.flows {
				parent[find(g)] = find(f)
			}
		}
	}
	class := make(map[*Flow]*Flow, len(parent))
	for f := range parent {
		class[f] = find(f)
	}
	return class
}

// flowNames renders a flow set for failure messages, sorted by seq.
func flowNames(set map[*Flow]bool) string {
	var fs []*Flow
	for f := range set {
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].seq < fs[j].seq })
	s := ""
	for _, f := range fs {
		s += fmt.Sprintf(" seq%d", f.seq)
	}
	return s
}

// checkPartition compares, for every active flow, the detector's BFS
// component against the brute-force union-find class.
func checkPartition(t *testing.T, n *Net, op string) {
	t.Helper()
	class := bruteComponents(n)
	for _, f := range n.flows {
		got := detectorComponent(n, f)
		want := make(map[*Flow]bool)
		for g, c := range class {
			if c == class[f] {
				want[g] = true
			}
		}
		if !got[f] {
			t.Fatalf("after %s: detector component of seq%d omits the seed flow", op, f.seq)
		}
		if len(got) != len(want) {
			t.Fatalf("after %s: component of seq%d: detector {%s } vs union-find {%s }",
				op, f.seq, flowNames(got), flowNames(want))
		}
		for g := range want {
			if !got[g] {
				t.Fatalf("after %s: component of seq%d: detector {%s } vs union-find {%s }",
					op, f.seq, flowNames(got), flowNames(want))
			}
		}
	}
	// The incrementally maintained transparency bound must agree with the
	// from-scratch one; ubMarginFactor absorbs the incremental float drift.
	seen := make(map[*Link]bool)
	for _, f := range n.flows {
		for _, l := range f.Links {
			if seen[l] {
				continue
			}
			seen[l] = true
			if got, want := !l.transparent(), bruteOpaque(l); got != want {
				t.Fatalf("after %s: link %s opaque=%t, from-scratch %t (ubSum=%v ubInf=%d cap=%v)",
					op, l.Name, got, want, l.ubSum, l.ubInf, l.Capacity)
			}
		}
	}
}

// TestComponentDetectorMatchesBruteForce drives randomized graphs through
// starts, cancels, capacity changes, and time advances (completions), and
// checks the partition after every operation.
func TestComponentDetectorMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := sim.New()
			n := NewNet(e)

			nLinks := 4 + rng.Intn(7)
			links := make([]*Link, nLinks)
			for i := range links {
				links[i] = NewLink(fmt.Sprintf("l%d", i), (50+150*rng.Float64())*1e6)
			}

			ops := 120
			for op := 0; op < ops; op++ {
				var desc string
				switch k := rng.Intn(10); {
				case k < 5: // start a flow
					f := &Flow{Tag: TagStoragePush}
					if rng.Intn(8) == 0 {
						// Linkless but rate-capped: a component of one.
						f.MaxRate = (10 + 40*rng.Float64()) * 1e6
					} else {
						for _, i := range rng.Perm(nLinks)[:1+rng.Intn(3)] {
							f.Links = append(f.Links, links[i])
						}
						if rng.Intn(3) == 0 {
							f.MaxRate = (10 + 90*rng.Float64()) * 1e6
						}
					}
					if rng.Intn(3) == 0 {
						f.Size = 1e6 + rng.Float64()*1e9 // completes during advances
					} else {
						f.Size = 1e12 // effectively long-lived
					}
					n.Start(f)
					desc = fmt.Sprintf("op%d start seq%d", op, f.seq)
				case k < 7: // cancel a random active flow
					if len(n.flows) == 0 {
						continue
					}
					f := n.flows[rng.Intn(len(n.flows))]
					desc = fmt.Sprintf("op%d cancel seq%d", op, f.seq)
					n.Cancel(f)
				case k < 9: // change a link capacity
					l := links[rng.Intn(nLinks)]
					c := (50 + 150*rng.Float64()) * 1e6
					desc = fmt.Sprintf("op%d setcap %s %.0f", op, l.Name, c)
					n.SetCapacity(l, c)
				default: // advance simulated time; completions fire
					fired := false
					e.After(0.5+rng.Float64()*5, func() { fired = true })
					for !fired && e.Step() {
					}
					desc = fmt.Sprintf("op%d advance to %.3f", op, e.Now())
				}
				checkPartition(t, n, desc)
			}
			e.Stop()
		})
	}
}
