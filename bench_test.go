// Benchmarks of the public facade end to end. The paper's tables and figures
// are regenerated by cmd/paperrepro, not here: a benchmark that reports a
// cached paper metric measures nothing.
package hybridmig_test

import (
	"strconv"
	"testing"

	hybridmig "github.com/hybridmig/hybridmig"
)

// BenchmarkFacadeCampaign exercises the orchestration API end to end: a
// four-VM fleet migrated as one batched campaign through the facade.
func BenchmarkFacadeCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := hybridmig.NewScenario(hybridmig.WithNodes(8))
		steps := make([]hybridmig.Step, 4)
		for k := range steps {
			name := "vm" + strconv.Itoa(k)
			s.AddVM(hybridmig.VMSpec{Name: name, Node: k, Approach: hybridmig.OurApproach})
			steps[k] = hybridmig.Step{VM: name, Dst: 4 + k}
		}
		s.Campaign(1, hybridmig.BatchedK(2), steps...)
		res, err := s.Run()
		if err != nil || res.Campaigns[0].Jobs != 4 {
			b.Fatal("campaign incomplete")
		}
		b.ReportMetric(res.Campaigns[0].Makespan(), "makespan_s")
	}
}

// BenchmarkFacadeQuickstart exercises the public API end to end: one VM,
// one migration, under the quickstart scenario.
func BenchmarkFacadeQuickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := hybridmig.NewScenario(hybridmig.WithNodes(4)).
			AddVM(hybridmig.VMSpec{Name: "vm0", Node: 0, Approach: hybridmig.OurApproach}).
			MigrateAt("vm0", 1, 1)
		res, err := s.Run()
		if err != nil || !res.VM("vm0").Migrated {
			b.Fatal("migration incomplete")
		}
	}
}
