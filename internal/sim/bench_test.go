package sim_test

import (
	"fmt"
	"testing"

	"github.com/hybridmig/hybridmig/internal/benchscen"
)

// The event-path scenario bodies live in internal/benchscen so
// cmd/benchreport measures exactly what these benchmarks measure.

func BenchmarkAfterFire(b *testing.B) { benchscen.AfterFire(b) }

func BenchmarkEngineTimerChurn(b *testing.B) { benchscen.TimerChurn(b) }

func BenchmarkParallelComponents(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			benchscen.ParallelComponents(b, shards)
		})
	}
}

// BenchmarkProcPingPong measures the process handoff round trip: one
// sleeping process woken once per iteration.
func BenchmarkProcPingPong(b *testing.B) { benchscen.ProcPingPong(b) }

// BenchmarkProcSpawn measures spawning a process that sleeps once and
// finishes, the AsyncWR writer pattern.
func BenchmarkProcSpawn(b *testing.B) { benchscen.ProcSpawn(b) }
