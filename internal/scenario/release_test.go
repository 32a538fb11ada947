package scenario

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/trace"
)

// releaseModes are the three run paths that own engines: serial, sharded
// without couplings (one engine per worker call), and sharded with a fabric
// fault (a sim.ShardSet aligning every engine at the capacity steps).
var releaseModes = []struct {
	name     string
	opts     []Option
	sharded  bool
	coupling bool
}{
	{name: "serial"},
	{name: "parallel-2", opts: []Option{WithParallel(2)}, sharded: true},
	{name: "parallel-2-coupled", opts: []Option{WithParallel(2), WithFaults(
		FaultSpec{Kind: FaultFabricDegrade, At: 4, Factor: 0.5, Duration: 2})}, sharded: true, coupling: true},
}

// independentMigrations is a small scenario the planner shards: three VMs
// migrating between distinct node pairs, images preseeded.
func independentMigrations(opts ...Option) *Scenario {
	s := New(append([]Option{WithNodes(6), WithPreseededImages()}, opts...)...)
	for i, name := range []string{"a", "b", "c"} {
		s.AddVM(VMSpec{Name: name, Node: 2 * i, Approach: cluster.OurApproach, Workload: Rewrite(nil)}).
			MigrateAt(name, 2*i+1, 3)
	}
	return s
}

// expectBaseline waits for the goroutine count to return to baseline: the
// sharded paths' workers exit just after signalling completion.
func expectBaseline(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i > 200 {
			t.Fatalf("goroutines = %d, want baseline %d: process coroutines leaked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunReleasesCoroutines: once Run returns, every process coroutine —
// parked or idle on an engine's free list — has been released, on the
// serial and both sharded paths.
func TestRunReleasesCoroutines(t *testing.T) {
	for _, m := range releaseModes {
		t.Run(m.name, func(t *testing.T) {
			s := independentMigrations(m.opts...)
			cfg, _, _, err := s.resolve()
			if err != nil {
				t.Fatal(err)
			}
			var plan *partitionPlan
			if s.opt.parallel {
				plan = s.planPartition(cfg)
			}
			if (plan != nil) != m.sharded || (plan != nil && (len(plan.couplingTimes) > 0) != m.coupling) {
				t.Fatalf("plan does not exercise the %s path", m.name)
			}
			baseline := runtime.NumGoroutine()
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, vm := range res.VMs {
				if !vm.Migrated {
					t.Fatalf("%s did not migrate", vm.Name)
				}
			}
			expectBaseline(t, baseline)
		})
	}
}

// TestRunReleasesCoroutinesOnPanic: a panic raised inside the simulation (an
// observer called from a migration process) reaches Run's caller, and the
// engines are released on the way out.
func TestRunReleasesCoroutinesOnPanic(t *testing.T) {
	for _, m := range releaseModes {
		t.Run(m.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			obs := trace.ObserverFunc(func(e trace.Event) {
				if e.Kind == trace.KindMigrationRequested {
					panic("observer boom")
				}
			})
			r := func() (r any) {
				defer func() { r = recover() }()
				_, _ = independentMigrations(append(m.opts, WithObserver(obs))...).Run()
				return nil
			}()
			if !strings.Contains(fmt.Sprint(r), "observer boom") {
				t.Fatalf("Run panicked with %v, want the observer's panic", r)
			}
			expectBaseline(t, baseline)
		})
	}
}
