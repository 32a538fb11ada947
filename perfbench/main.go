// Command perfbench is the repository benchmark. It times one workload from
// outside the simulator, through the public entry points (Scenario.Validate
// and Scenario.Run, the migsimd HTTP handler, the layer constructors),
// checks the simulated outputs of every run, and prints every metric by
// name with its unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// With --trace 0 it reports the end-to-end metrics of untraced runs; with
// --trace 1 it makes one traced run instead — a CPU profile split across
// the repo's layers, spans written as Chrome Trace Event JSON, and the layer
// probes — and reports the per-layer metrics.
//
// Workloads: fig4-pvfs-30 and migsimd-quickstart are the benchmark's
// (BENCHMARK.json). campaign-local-16 and fleet-2k-idle run the same way
// but are left out of it. Campaign's wall time, dominated by goroutine
// handoffs between simulation processes, swings by a third from run to run
// on a shared two-vCPU host. Fleet's CPU time, with its 1 GB heap, follows
// the host's load of the moment so closely that the middle half of ten runs
// spans nearly a quarter of their median, the largest bound the benchmark
// can set.
//
// The end-to-end metrics are cpu_s, peak_rss_mb and setup_s. Wall time and
// served latency are printed but are not among them: on a shared host,
// wall time also counts the time the hypervisor gives a vCPU to other
// tenants, and over ten runs its middle half spanned up to two fifths of
// its median, where CPU time stayed within a quarter. The simulation
// workloads run on one P, because the simulator executes one event at a
// time: their CPU time is then the simulator's work and its garbage
// collection, without the second P's idle spinning, and their wall time
// matches it on an idle host.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload fig4-pvfs-30 --seed 1 --seconds 60 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// report is the outcome of one benchmark invocation.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	lines             []string // human-readable detail printed before the result
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail records an operation that failed or produced wrong output.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.printf("FAIL: "+format, args...)
}

// outDir holds the traced run's profiles and span files, inside the
// checkout's build directory.
const outDir = ".bench_build/out"

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 60, "how long one run measures")
	traced := flag.Int("trace", 0, "1 for the traced run and per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, then exit (the setup_s measurement)")
	flag.Parse()
	if *setupOnly {
		if err := setupWorkload(*workload, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	var rep *report
	var err error
	w, isSim := simWorkloads[*workload]
	if isSim {
		runtime.GOMAXPROCS(1)
	}
	switch {
	case isSim && *traced == 0:
		rep, err = timeSim(w, *seed, *seconds)
	case isSim:
		rep, err = traceSim(w, *seed)
	case *workload == serveWorkload && *traced == 0:
		rep, err = timeServe(*seed, *seconds)
	case *workload == serveWorkload:
		rep, err = traceServe(*seed, *seconds)
	default:
		err = fmt.Errorf("unknown workload %q (want fig4-pvfs-30, campaign-local-16, fleet-2k-idle or %s)", *workload, serveWorkload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	seedNote := ""
	switch {
	case isSim && !w.seeded:
		seedNote = " (the seed does not apply: a fixed paper configuration)"
	case isSim:
		seedNote = " (the seed sets each VM's start time, so the digest is per seed)"
	}
	fmt.Printf("perfbench: workload=%s seed=%d%s seconds=%g trace=%d\n", *workload, *seed, seedNote, *seconds, *traced)
	fmt.Println("provenance:", provenance())
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	out := map[string]any{}
	for _, m := range rep.metrics {
		fmt.Printf("metric %-28s %14.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": finite(m.value), "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": rep.correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": out,
	})
	fmt.Println(string(line))
}

// setupWorkload is everything a run does before its first timed request:
// build and validate every cell's spec, or start a daemon and have its
// handler accept the first submission.
func setupWorkload(name string, seed int64) error {
	if name == serveWorkload {
		return serveSetup()
	}
	w, ok := simWorkloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	for _, c := range w.cells(seed) {
		if err := c.build().Validate(); err != nil {
			return fmt.Errorf("%s: validate: %w", c.name, err)
		}
	}
	return nil
}

// setupTimes is the setup_s measurement: the wall time from starting a
// fresh benchmark process to its exit right after setupWorkload, repeated
// in n processes. It covers process start, package initialisation and the
// workload's own set-up.
func setupTimes(name string, seed int64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--setup-only")
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("setup process: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// finite keeps the JSON encodable: a latency that no request met is +Inf.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	if math.IsNaN(v) || math.IsInf(v, -1) {
		return 0
	}
	return v
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	return kb / 1024
}

// procField reads the first number after key in a /proc text file.
func procField(path, key string) float64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			var v float64
			fmt.Sscan(strings.TrimSpace(rest), &v)
			return v
		}
	}
	return 0
}

// provenance stamps a result with the machine and code it came from. The
// commit comes from the environment (run.py computes it), as the benchmark
// may run from a checkout that is not a git repository.
func provenance() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
		f.Close()
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s cpu=%q mem_total_mb=%.0f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit,
		cpu, procField("/proc/meminfo", "MemTotal:")/1024)
}

// spread renders a sample set: its median, quartiles and every sample.
func spread(xs []float64) string {
	return fmt.Sprintf("n=%d median=%.6g q1=%.6g q3=%.6g samples=%.4g", len(xs), median(xs), quantile(xs, 0.25), quantile(xs, 0.75), xs)
}

// writeOutputs saves the traced run's CPU profile and spans.
func writeOutputs(rep *report, name string, seed int64, prof []byte, rec *recorder) {
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err == nil {
			rep.printf("cpu profile: %s.cpu.pprof", base)
		}
	}
	meta := map[string]any{"workload": name, "seed": seed, "provenance": provenance()}
	if err := rec.writeChrome(base+".trace.json", meta); err != nil {
		rep.printf("trace: %v", err)
		return
	}
	rep.printf("trace: %s.trace.json (%d spans)", base, len(rec.spans))
}

// reportSplit adds the per-layer CPU metrics of a traced run and prints the
// reconciliation line: the layer sum against the process CPU time, the
// dominant layers, the split the workload predicts, and the tracing
// overhead.
func reportSplit(rep *report, name string, split cpuSplit, processCPU, overhead float64) {
	for _, l := range layers {
		rep.add(l+".cpu_s", "s", split.seconds(l))
	}
	rep.add("process.cpu_s", "s", processCPU)
	rep.add("trace.overhead_frac", "ratio", overhead)

	share := map[string]float64{}
	ranked := append([]string(nil), layers...)
	for _, l := range layers {
		if processCPU > 0 {
			share[l] = split.seconds(l) / processCPU
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return share[ranked[i]] > share[ranked[j]] })
	var top []string
	for _, l := range ranked[:4] {
		top = append(top, fmt.Sprintf("%s %.1f%%", l, 100*share[l]))
	}
	p := predictions[name]
	verdict := "met"
	if !p.holds(share) {
		verdict = "MISSED"
	}
	rep.printf("reconcile: layer cpu_s sum %.3f s vs process cpu_s %.3f s (%.1f%%); dominant: %s; predicted: %s -> %s; trace.overhead_frac=%.4f",
		float64(split.total)/1e9, processCPU, 100*float64(split.total)/1e9/processCPU,
		strings.Join(top, ", "), p.text, verdict, overhead)
}

// prediction is the layer split a workload was chosen for, as shares of
// process CPU time.
type prediction struct {
	text  string
	holds func(share map[string]float64) bool
}

var predictions = map[string]prediction{
	"fig4-pvfs-30": {
		"flow > 50% of cpu_s",
		func(s map[string]float64) bool { return s["flow"] > 0.5 },
	},
	"campaign-local-16": {
		"flow < 10% of cpu_s and sim+runtime the largest share",
		func(s map[string]float64) bool {
			if s["flow"] >= 0.1 {
				return false
			}
			sr := s["sim"] + s["runtime"]
			for _, l := range layers {
				if l != "sim" && l != "runtime" && s[l] >= sr {
					return false
				}
			}
			return true
		},
	},
	"fleet-2k-idle": {
		"flow < 10% of cpu_s and chunk+core+guest > 50%",
		func(s map[string]float64) bool { return s["flow"] < 0.1 && s["chunk"]+s["core"]+s["guest"] > 0.5 },
	},
	serveWorkload: {
		"service > 0 (the only workload whose latency path crosses the service layer)",
		func(s map[string]float64) bool { return s["service"] > 0 },
	},
}
