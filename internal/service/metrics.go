package service

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// wallBuckets are the run wall-time histogram bounds in seconds: small-scale
// scenarios finish in milliseconds, paper-scale in minutes.
var wallBuckets = [...]float64{0.01, 0.05, 0.25, 1, 5, 15, 60, 300}

// metricsSet is the daemon's instrumentation: monotonic counters, three
// gauges and one histogram, hand-rolled (no client library dependency) and rendered
// in the Prometheus text exposition format. Exposition order is fixed so
// /metrics output is deterministic for a given state.
type metricsSet struct {
	started   atomic.Int64 // runs admitted to the queue
	completed atomic.Int64 // runs that finished successfully
	failed    atomic.Int64 // runs that finished with an error (breaker included)
	shed      atomic.Int64 // submissions rejected because the queue was full
	canceled  atomic.Int64 // runs canceled by the client or shutdown
	breaker   atomic.Int64 // runs killed by the wall-clock budget (subset of failed)
	running   atomic.Int64 // runs executing right now

	mu     sync.Mutex
	counts [len(wallBuckets) + 1]int64 // +1 for the +Inf bucket
	sum    float64
	n      int64
}

// observeWall records one finished run's wall time in the histogram.
func (m *metricsSet) observeWall(sec float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := 0
	for i < len(wallBuckets) && sec > wallBuckets[i] {
		i++
	}
	m.counts[i]++
	m.sum += sec
	m.n++
}

// write renders the exposition; queueDepth is sampled by the caller.
func (m *metricsSet) write(w io.Writer, queueDepth int) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP migsimd_%s %s\n# TYPE migsimd_%s counter\nmigsimd_%s %d\n",
			name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP migsimd_%s %s\n# TYPE migsimd_%s gauge\nmigsimd_%s %d\n",
			name, help, name, name, v)
	}
	counter("runs_started_total", "Runs admitted to the queue.", m.started.Load())
	counter("runs_completed_total", "Runs that finished successfully.", m.completed.Load())
	counter("runs_failed_total", "Runs that finished with an error.", m.failed.Load())
	counter("runs_shed_total", "Submissions rejected because the queue was full.", m.shed.Load())
	counter("runs_canceled_total", "Runs canceled by the client or by shutdown.", m.canceled.Load())
	counter("runs_breaker_total", "Runs killed by the per-run wall-clock budget.", m.breaker.Load())
	gauge("queue_depth", "Runs waiting in the admission queue.", int64(queueDepth))
	gauge("runs_running", "Runs executing right now.", m.running.Load())
	// Every simulation process is a runtime coroutine, which counts as a
	// goroutine: once runs drain, this falls back to its idle level unless
	// an engine was left holding parked or pooled coroutines.
	gauge("goroutines", "Goroutines in the daemon, simulation process coroutines included.", int64(runtime.NumGoroutine()))

	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(w, "# HELP migsimd_run_wall_seconds Wall-clock duration of finished runs.\n")
	fmt.Fprintf(w, "# TYPE migsimd_run_wall_seconds histogram\n")
	var cum int64
	for i, le := range wallBuckets {
		cum += m.counts[i]
		fmt.Fprintf(w, "migsimd_run_wall_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", le), cum)
	}
	cum += m.counts[len(wallBuckets)]
	fmt.Fprintf(w, "migsimd_run_wall_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "migsimd_run_wall_seconds_sum %g\n", m.sum)
	fmt.Fprintf(w, "migsimd_run_wall_seconds_count %d\n", m.n)
}
