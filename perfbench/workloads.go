package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"github.com/hybridmig/hybridmig"
)

// cell is one scenario of a simulation workload: a function that builds its
// spec and the migrations the spec declares, so every Run's output can be
// checked against them.
type cell struct {
	name  string
	build func(opts ...hybridmig.Option) *hybridmig.Scenario
	moved []string // VMs whose migration the spec declares
}

// simWorkload is a workload timed through Scenario.Run: one iteration runs
// every cell once.
type simWorkload struct {
	name   string
	seeded bool // whether --seed changes the generated inputs
	cells  func(seed int64) []cell
}

var simWorkloads = map[string]simWorkload{
	"fig4-pvfs-30":      {name: "fig4-pvfs-30", cells: fig4Cells},
	"campaign-local-16": {name: "campaign-local-16", cells: campaignCells},
	"fleet-2k-idle":     {name: "fleet-2k-idle", seeded: true, cells: fleetCells},
}

// fig4Cells is the Fig. 4 cell at paper scale that dominates the Fig. 4
// experiment's wall time: 30 AsyncWR VMs on the shared PFS, all 30 migrating at the warm-up
// instant to distinct targets.
func fig4Cells(int64) []cell {
	const sources = 30
	var moved []string
	for k := 0; k < sources; k++ {
		moved = append(moved, fmt.Sprintf("vm%02d", k))
	}
	return []cell{{
		name: "fig4/pvfs-shared/30",
		build: func(opts ...hybridmig.Option) *hybridmig.Scenario {
			set := hybridmig.SetupFor(hybridmig.ScalePaper, 2*sources)
			s := hybridmig.NewScenario(append([]hybridmig.Option{hybridmig.WithConfig(set.Cluster)}, opts...)...)
			for i := 0; i < sources; i++ {
				s.AddVM(hybridmig.VMSpec{
					Name: fmt.Sprintf("vm%02d", i), Node: i, Approach: hybridmig.PVFSShared,
					Workload: hybridmig.AsyncWR(&set.AsyncWR, set.Warmup+set.Horizon),
				})
			}
			for k := 0; k < sources; k++ {
				s.MigrateAt(fmt.Sprintf("vm%02d", k), sources+k, set.Warmup)
			}
			return s
		},
		moved: moved,
	}}
}

// campaignApproaches are the four local-storage approaches of the campaign
// study, one paper-scale campaign each.
var campaignApproaches = []hybridmig.Approach{
	hybridmig.OurApproach, hybridmig.Mirror, hybridmig.Postcopy, hybridmig.Precopy,
}

// campaignCells reproduces the campaign study's all-at-once column: 16 IOR
// VMs on distinct sources moving to 8 destinations, two per target node, so
// concurrent migrations contend on destination NICs and disks.
func campaignCells(int64) []cell {
	const n = 16
	var cells []cell
	for _, a := range campaignApproaches {
		var moved []string
		for i := 0; i < n; i++ {
			moved = append(moved, fmt.Sprintf("vm%02d", i))
		}
		cells = append(cells, cell{
			name: "campaign/" + string(a) + "/all-at-once",
			build: func(opts ...hybridmig.Option) *hybridmig.Scenario {
				set := hybridmig.SetupFor(hybridmig.ScalePaper, n+(n+1)/2)
				ior := set.IOR
				s := hybridmig.NewScenario(append([]hybridmig.Option{hybridmig.WithConfig(set.Cluster)}, opts...)...)
				steps := make([]hybridmig.Step, n)
				for i := 0; i < n; i++ {
					name := fmt.Sprintf("vm%02d", i)
					s.AddVM(hybridmig.VMSpec{Name: name, Node: i, Approach: a, Workload: hybridmig.IOR(&ior)})
					steps[i] = hybridmig.Step{VM: name, Dst: n + i/2}
				}
				return s.Campaign(set.Warmup, hybridmig.AllAtOnce(), steps...)
			},
			moved: moved,
		})
	}
	return cells
}

// fleetCells is the fleet-scale shape: 2,000 idle VMs, two per source node,
// across 1,000 disjoint node pairs with preseeded images and a fabric wide
// enough never to bottleneck, on the serial kernel. The seed permutes which
// pair starts in which of the 50 one-second stagger slots; every slot holds
// the same number of pairs whatever the seed.
func fleetCells(seed int64) []cell {
	const (
		pairs = 1000
		slots = 50
	)
	slot := rand.New(rand.NewSource(seed)).Perm(pairs)
	var moved []string
	for p := 0; p < pairs; p++ {
		for v := 0; v < 2; v++ {
			moved = append(moved, fmt.Sprintf("vm%d-%d", p, v))
		}
	}
	return []cell{{
		name: "fleet/our-approach/2000",
		build: func(opts ...hybridmig.Option) *hybridmig.Scenario {
			nodes := 2 * pairs
			set := hybridmig.SetupFor(hybridmig.ScalePaper, nodes)
			set.Cluster.Testbed.FabricBandwidth = 2 * float64(nodes) * set.Cluster.Testbed.NICBandwidth
			s := hybridmig.NewScenario(append([]hybridmig.Option{
				hybridmig.WithConfig(set.Cluster), hybridmig.WithPreseededImages(),
			}, opts...)...)
			warmup := set.Cluster.Experiment.WarmupDelay
			for p := 0; p < pairs; p++ {
				src, dst := 2*p, 2*p+1
				for v := 0; v < 2; v++ {
					name := fmt.Sprintf("vm%d-%d", p, v)
					s.AddVM(hybridmig.VMSpec{Name: name, Node: src, Approach: hybridmig.OurApproach})
					s.MigrateAt(name, dst, warmup+float64(slot[p]%slots)+float64(v))
				}
			}
			return s
		},
		moved: moved,
	}}
}

// checkResult verifies one Run's simulated outputs: no error, every declared
// migration completed, and every traffic tag finite and non-negative. It
// returns the digest of the run's hex-float seed capture.
func checkResult(c cell, res *hybridmig.Result, err error) (string, error) {
	if err != nil {
		return "", fmt.Errorf("%s: run: %w", c.name, err)
	}
	for _, name := range c.moved {
		v := res.VM(name)
		if v == nil || !v.Migrated {
			return "", fmt.Errorf("%s: %s did not migrate", c.name, name)
		}
	}
	for tag, b := range res.Traffic {
		if math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
			return "", fmt.Errorf("%s: traffic %s = %v", c.name, tag, b)
		}
	}
	if res.SeedCapture == "" {
		return "", fmt.Errorf("%s: empty seed capture", c.name)
	}
	return digest(res.SeedCapture), nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}
