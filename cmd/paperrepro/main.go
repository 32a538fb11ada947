// Command paperrepro regenerates the tables and figures of the paper's
// evaluation section and prints them as text tables, or as machine-readable
// JSON with -json. Every experiment runs through the declarative scenario
// API (see internal/experiments).
//
// Usage:
//
//	paperrepro [-experiment table1|fig3|fig4|fig5|campaign|strategies|ablations|all]
//	           [-scale small|paper] [-json]
//
// -experiment ablations sweeps the design choices of the hybrid scheme on the
// Figure 3 IOR scenario: the write-count threshold, the prioritized pull
// order, the repository stripe size, the base-image prefetch, and the
// paper's future-work extensions (dedup, compression). It runs only when
// named; -experiment all prints the paper's artifacts alone.
//
// -experiment strategies lists the full storage-transfer strategy registry —
// the paper's five approaches plus every strategy registered on top (the
// adaptive-threshold hybrid) — with their Table 1 summary lines.
//
// At -scale paper the runs use the full Section 5 parameters (4 GB images
// and RAM, 100 s warm-up, up to 30 concurrent migrations, 64 CM1 ranks);
// -scale small preserves the ratios at roughly 1/16 size for quick runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/hybridmig/hybridmig/internal/experiments"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/strategy"
	_ "github.com/hybridmig/hybridmig/internal/strategy/adaptive" // register the sixth strategy
)

func main() {
	exp := flag.String("experiment", "all", "which artifact to regenerate: table1, fig3, fig4, fig5, campaign, strategies, ablations, all (all excludes ablations)")
	scaleName := flag.String("scale", "small", "run size: small or paper")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	parallel := flag.Int("parallel", 0, "experiment cells to run concurrently (0 = serial, -1 = GOMAXPROCS); output is identical either way")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()
	experiments.SetParallel(*parallel)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
			}
		}()
	}

	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.ScaleSmall
	case "paper":
		scale = experiments.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "paperrepro: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false
	report := map[string]any{"scale": scale.String()}

	if want("table1") {
		ran = true
		rows := experiments.RunTable1()
		if *jsonOut {
			report["table1"] = rows
		} else {
			t := metrics.NewTable("Table 1: summary of compared approaches", "approach", "local storage transfer strategy")
			for _, r := range rows {
				t.AddRow(string(r.Approach), r.Strategy)
			}
			fmt.Println(t)
		}
	}
	if want("fig3") {
		ran = true
		start := time.Now()
		rows := experiments.RunFig3(scale)
		if *jsonOut {
			report["fig3"] = rows
		} else {
			for _, t := range experiments.Fig3Tables(rows) {
				fmt.Println(t)
			}
			fmt.Printf("(fig3 %s scale: %.1fs wall)\n\n", scale, time.Since(start).Seconds())
		}
	}
	if want("fig4") {
		ran = true
		start := time.Now()
		rows := experiments.RunFig4(scale)
		if *jsonOut {
			report["fig4"] = rows
		} else {
			for _, t := range experiments.Fig4Tables(scale, rows) {
				fmt.Println(t)
			}
			fmt.Printf("(fig4 %s scale: %.1fs wall)\n\n", scale, time.Since(start).Seconds())
		}
	}
	if want("fig5") {
		ran = true
		start := time.Now()
		rows := experiments.RunFig5(scale)
		if *jsonOut {
			report["fig5"] = rows
		} else {
			for _, t := range experiments.Fig5Tables(scale, rows) {
				fmt.Println(t)
			}
			fmt.Printf("(fig5 %s scale: %.1fs wall)\n\n", scale, time.Since(start).Seconds())
		}
	}
	if want("strategies") {
		ran = true
		names := strategy.Names()
		if *jsonOut {
			rows := make([]map[string]string, 0, len(names))
			for _, n := range names {
				d, _ := strategy.Describe(n)
				rows = append(rows, map[string]string{"name": n, "description": d})
			}
			report["strategies"] = rows
		} else {
			t := metrics.NewTable("Registered storage-transfer strategies", "strategy", "description")
			for _, n := range names {
				d, _ := strategy.Describe(n)
				t.AddRow(n, d)
			}
			fmt.Println(t)
		}
	}
	if want("campaign") {
		ran = true
		start := time.Now()
		rows := experiments.RunCampaign(scale)
		if *jsonOut {
			report["campaign"] = rows
		} else {
			for _, t := range experiments.CampaignTables(scale, rows) {
				fmt.Println(t)
			}
			fmt.Printf("(campaign %s scale: %.1fs wall)\n\n", scale, time.Since(start).Seconds())
		}
	}
	if *exp == "ablations" {
		ran = true
		start := time.Now()
		type ablation struct {
			Name string                    `json:"name"`
			Rows []experiments.AblationRow `json:"rows"`
		}
		var out []ablation
		for _, a := range []struct {
			name string
			run  func(experiments.Scale) []experiments.AblationRow
		}{
			{"threshold", experiments.AblateThreshold},
			{"priority", experiments.AblatePullPriority},
			{"stripe", experiments.AblateStripeSize},
			{"prefetch", experiments.AblateBasePrefetch},
			{"dedup", experiments.AblateDedup},
			{"compression", experiments.AblateCompression},
		} {
			rows := a.run(scale)
			if *jsonOut {
				out = append(out, ablation{a.name, rows})
			} else {
				fmt.Println(experiments.AblationTable("Ablation: "+a.name+" ("+scale.String()+" scale, IOR scenario)", rows))
			}
		}
		if *jsonOut {
			report["ablations"] = out
		} else {
			fmt.Printf("(ablations %s scale: %.1fs wall)\n\n", scale, time.Since(start).Seconds())
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "paperrepro: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
			os.Exit(1)
		}
	}
}
