package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/hybridmig/hybridmig"
	"github.com/hybridmig/hybridmig/internal/scenario"
)

const serveWorkload = "migsimd-quickstart"

// setupRuns is how many fresh processes the setup_s median is taken over.
const setupRuns = 21

// iteration is one pass over a simulation workload's cells.
type iteration struct {
	wall, cpu float64 // seconds over the Run calls
	results   []*hybridmig.Result
	observers []*simObserver
}

// iterate builds and validates every cell, then runs each, checking its
// outputs against the spec and the digests of earlier iterations. With a
// recorder it also records spans around each call and observes each run.
func iterate(rep *report, cells []cell, digests map[string]string, rec *recorder) (it iteration) {
	scenarios := make([]*hybridmig.Scenario, len(cells))
	for i, c := range cells {
		opts := []hybridmig.Option{hybridmig.WithSeedCapture()}
		if rec != nil {
			obs := newSimObserver(rec, 0)
			it.observers = append(it.observers, obs)
			opts = append(opts, hybridmig.WithObserver(obs))
		}
		s := c.build(opts...)
		var err error
		rec.timed("Validate "+c.name, "scenario", 0, func() { err = s.Validate() })
		if err != nil {
			rep.fail("%s: validate: %v", c.name, err)
		}
		scenarios[i] = s
	}
	runtime.GC() // every iteration starts from a settled heap
	for i, c := range cells {
		span := 0
		if rec != nil {
			span = rec.begin("Run "+c.name, "scenario", "bench", 0, 0)
			it.observers[i].parent = span
		}
		cpu0, t0 := cpuSeconds(), time.Now()
		res, err := scenarios[i].Run()
		it.wall += time.Since(t0).Seconds()
		it.cpu += cpuSeconds() - cpu0
		rep.attempted++
		d, err := checkResult(c, res, err)
		if err != nil {
			rec.end(span, 0)
			rep.failed++
			rep.fail("%v", err)
			continue
		}
		rec.end(span, res.Clock)
		if prev, ok := digests[c.name]; ok && prev != d {
			rep.fail("%s: digest %s differs from the earlier run's %s", c.name, d, prev)
		}
		digests[c.name] = d
		it.results = append(it.results, res)
	}
	return it
}

// timeSim is the timed run of a simulation workload: iterations until the
// next one, taking the median iteration time, would end past the run length
// by more than 5%.
func timeSim(w simWorkload, seed int64, seconds float64) (*report, error) {
	rep := &report{correct: true}
	cells := w.cells(seed)
	digests := map[string]string{}
	var walls, cpus []float64
	start := time.Now()
	for {
		it := iterate(rep, cells, digests, nil)
		walls, cpus = append(walls, it.wall), append(cpus, it.cpu)
		if time.Since(start).Seconds()+median(walls) > 1.05*seconds {
			break
		}
	}
	setups, err := setupTimes(w.name, seed, setupRuns)
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		rep.printf("digest %s %s", c.name, digests[c.name])
	}
	rep.printf("wall_s per iteration: %s", spread(walls))
	rep.printf("cpu_s per iteration: %s", spread(cpus))
	rep.printf("setup_s: %s", spread(setups))
	rep.printf("failed_frac: %d/%d = %g", rep.failed, rep.attempted, float64(rep.failed)/float64(rep.attempted))
	rep.add("cpu_s", "s", median(cpus))
	rep.add("peak_rss_mb", "MB", peakRSSMB())
	rep.add("setup_s", "s", median(setups))
	return rep, nil
}

// traceSim is the traced run of a simulation workload: one iteration under
// the CPU profiler with spans and observers between two untraced ones, whose
// mean wall time is the overhead baseline (the first iteration of a process
// runs cold), then the layer probes.
func traceSim(w simWorkload, seed int64) (*report, error) {
	rep := &report{correct: true}
	cells := w.cells(seed)
	digests := map[string]string{}
	base := iterate(rep, cells, digests, nil)

	rec := newRecorder()
	var prof bytes.Buffer
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	it := iterate(rep, cells, digests, rec)
	pprof.StopCPUProfile()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)

	split, err := attribute(prof.Bytes())
	if err != nil {
		return nil, err
	}
	after := iterate(rep, cells, digests, nil)
	reportSplit(rep, w.name, split, cpu, 2*it.wall/(base.wall+after.wall)-1)
	vms := 0
	for _, c := range cells {
		vms += len(c.moved)
		rep.printf("digest %s %s", c.name, digests[c.name])
	}
	reportProbes(rep, rec)
	rep.add("service.overhead_ms", "ms", 0)
	rep.add("scenario.alloc_kb_per_vm", "KB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(vms))
	rep.add("gc.cycles", "count", float64(ms1.NumGC-ms0.NumGC))
	rep.add("gc.pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	rep.add("service.queue_wait_ms.p50", "ms", 0)
	rep.add("service.run_ms.p50", "ms", 0)
	rep.add("service.shed", "count", 0)
	rep.add("loadgen.late_ms.max", "ms", 0)
	reportModelled(rep, it.results, it.observers)
	rep.printf("service.* and loadgen.* metrics: 0, no request is served on this workload")
	writeOutputs(rep, w.name, seed, prof.Bytes(), rec)
	return rep, nil
}

// reportProbes runs the layer probes and prints each one's shape.
func reportProbes(rep *report, rec *recorder) {
	for _, p := range probes {
		v := p.measure(rec)
		rep.add(p.metric, "ns", v)
		rep.printf("probe %s = %.1f ns/op: %s", p.metric, v, p.shape)
	}
}

// reportModelled adds the simulated-work figures of a traced iteration.
// They depend only on the simulator's model, so a change that only makes
// the simulator faster must leave every one of them unchanged.
func reportModelled(rep *report, results []*hybridmig.Result, observers []*simObserver) {
	var virtual, pushed, canceled, pulled, ondemand, rounds, downtime, traffic, migSum float64
	var migrated, events int
	var pushPhase, pullPhase float64
	for _, r := range results {
		virtual += r.Clock
		for _, b := range r.Traffic {
			traffic += b
		}
		for i := range r.VMs {
			v := &r.VMs[i]
			pushed += v.Core.PushedBytes
			canceled += v.Core.CanceledPushBytes
			pulled += v.Core.PulledBytes
			ondemand += float64(v.Core.OnDemandPulls)
			rounds += float64(v.Rounds)
			downtime += v.Downtime
			if v.Migrated {
				migrated++
				migSum += v.MigrationTime
			}
		}
	}
	for _, o := range observers {
		events += o.events
		pushPhase += o.pushPhase
		pullPhase += o.pullPhase
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rep.add("sim.virtual_s", "s", virtual)
	rep.add("trace.events", "count", float64(events))
	rep.add("core.pushed_gb", "GB", pushed/(1<<30))
	rep.add("core.pulled_gb", "GB", pulled/(1<<30))
	rep.add("core.ondemand_pulls", "count", ondemand)
	rep.add("core.push_waste_ratio", "ratio", ratio(canceled, pushed+canceled))
	rep.add("core.push_phase_s", "s", pushPhase)
	rep.add("core.pull_phase_s", "s", pullPhase)
	rep.add("hv.rounds", "count", rounds)
	rep.add("hv.downtime_ms", "ms", downtime*1e3)
	rep.add("fabric.traffic_gb", "GB", traffic/(1<<30))
	rep.add("migration_s.mean", "s", ratio(migSum, float64(migrated)))
}

// serveSchedule splits a run of the given length into the open-loop steps:
// half at the light rate, whose process CPU time per request is the
// reported cpu_s, a quarter at the heavy rate, and the last quarter over
// the ladder rungs.
func serveSchedule(seconds float64) (light, heavy, rung time.Duration) {
	d := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	return d(0.5), d(0.25), d(0.25 / ladderRungs)
}

// check counts a step's failures and verifies every served result.
func checkStep(rep *report, r stepResult) {
	for _, s := range r.samples {
		rep.attempted++
		if s.shed || s.failed {
			rep.failed++
		}
		if s.mismatch {
			rep.fail("served result differs from the library run of the same spec")
		}
	}
}

// timeServe is the timed run of the migsimd workload: seeded Poisson
// arrivals at the light and heavy rates, then up the ladder until a rung
// misses the p95 limit or grows a backlog.
func timeServe(seed int64, seconds float64) (*report, error) {
	rep := &report{correct: true}
	want, capture, err := reference()
	if err != nil {
		return nil, err
	}
	rep.printf("digest %s %s", serveWorkload, capture)
	setups, err := setupTimes(serveWorkload, seed, setupRuns)
	if err != nil {
		return nil, err
	}

	d := startDaemon(want)
	defer d.stop()
	rng := rand.New(rand.NewSource(seed))
	lightDur, heavyDur, rungDur := serveSchedule(seconds)
	light := d.step(lightRPS, lightDur, rng)
	// Peak RSS is read after the light step: past it, how many requests
	// pile up on the ladder rungs, and so the high-water mark, depends on
	// the host's speed of the moment.
	lightRSS := peakRSSMB()
	heavy := d.step(heavyRPS, heavyDur, rng)
	steps := []stepResult{light, heavy}
	for k := 1; k <= ladderRungs && steps[len(steps)-1].meets(); k++ {
		steps = append(steps, d.step(heavyRPS+float64(k*ladderStep), rungDur, rng))
	}
	maxRate, allMet := 0.0, true
	for _, s := range steps {
		checkStep(rep, s)
		if allMet = allMet && s.meets(); allMet {
			maxRate = s.rate
		}
		rep.printf("step %4.0f rps: n=%d p50=%.2f ms p95=%.2f ms (samples beyond p95: %d) backlog=%t late_max=%.2f ms",
			s.rate, len(s.samples), 1e3*s.p50, 1e3*s.p95, beyond(s.latencies(), s.p95), s.backlog, 1e3*s.lateMax)
	}
	rep.printf("light.p50_ms=%.3f light.p95_ms=%.3f heavy.p50_ms=%.3f heavy.p95_ms=%.3f max_rate_rps=%g (p95 <= %.0f ms, no backlog)",
		1e3*light.p50, 1e3*light.p95, 1e3*heavy.p50, 1e3*heavy.p95, maxRate, 1e3*p95Limit)
	rep.printf("setup_s: %s", spread(setups))
	rep.printf("failed_frac: %d/%d = %g", rep.failed, rep.attempted, float64(rep.failed)/float64(rep.attempted))
	served := 0
	for _, s := range light.samples {
		if !math.IsInf(s.latency, 1) {
			served++
		}
	}
	if served == 0 {
		return nil, fmt.Errorf("no request served at %d rps", lightRPS)
	}
	rep.add("cpu_s", "s", light.cpu/float64(served))
	rep.printf("peak_rss_mb after every step: %.4g MB", peakRSSMB())
	rep.add("peak_rss_mb", "MB", lightRSS)
	rep.add("setup_s", "s", median(setups))
	return rep, nil
}

// beyond counts the samples strictly above q.
func beyond(xs []float64, q float64) int {
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

// traceServe is the traced run of the migsimd workload: an untraced step at
// the heavy rate as the overhead baseline, the same step under the CPU
// profiler with a span per request, then the probes and one observed
// library run of the spec for the modelled figures.
func traceServe(seed int64, seconds float64) (*report, error) {
	rep := &report{correct: true}
	want, capture, err := reference()
	if err != nil {
		return nil, err
	}
	rep.printf("digest %s %s", serveWorkload, capture)
	d := startDaemon(want)
	defer d.stop()
	rng := rand.New(rand.NewSource(seed))
	dur := time.Duration(0.3 * seconds * float64(time.Second))
	base := d.step(heavyRPS, dur, rng)
	checkStep(rep, base)

	d.rec = newRecorder()
	var prof bytes.Buffer
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced := d.step(heavyRPS, dur, rng)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	checkStep(rep, traced)

	split, err := attribute(prof.Bytes())
	if err != nil {
		return nil, err
	}
	reportSplit(rep, serveWorkload, split, traced.cpu, traced.p50/base.p50-1)
	reportProbes(rep, d.rec)
	var overhead float64
	d.rec.timed("service.overhead_ms", "probe", 0, func() { overhead = overheadMS(d, 9) })
	rep.add("service.overhead_ms", "ms", overhead)
	rep.printf("probe service.overhead_ms = %.3f ms: served latency of the quickstart spec on an idle daemon minus a library Run of it, median of 9 pairs", overhead)
	n := float64(len(traced.samples))
	rep.add("scenario.alloc_kb_per_vm", "KB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/n)
	rep.add("gc.cycles", "count", float64(ms1.NumGC-ms0.NumGC))
	rep.add("gc.pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	var waits, runs []float64
	shed := 0
	for _, s := range traced.samples {
		if s.shed {
			shed++
		}
		if !math.IsInf(s.latency, 1) {
			waits, runs = append(waits, s.queueWait), append(runs, s.runMS)
		}
	}
	rep.add("service.queue_wait_ms.p50", "ms", median(waits))
	rep.add("service.run_ms.p50", "ms", median(runs))
	rep.add("service.shed", "count", float64(shed))
	rep.add("loadgen.late_ms.max", "ms", 1e3*traced.lateMax)

	obs := newSimObserver(d.rec, 0)
	_, sc, err := librarySpec(scenario.WithObserver(obs))
	if err != nil {
		return nil, err
	}
	res, err := sc.Run()
	if err != nil {
		return nil, err
	}
	reportModelled(rep, []*hybridmig.Result{res}, []*simObserver{obs})
	rep.printf("heavy step: untraced p50=%.2f ms, traced p50=%.2f ms over %d and %d requests", 1e3*base.p50, 1e3*traced.p50, len(base.samples), len(traced.samples))
	writeOutputs(rep, serveWorkload, seed, prof.Bytes(), d.rec)
	return rep, nil
}
