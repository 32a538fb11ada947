package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixture is a CPU profile of one traced campaign-local-16 iteration,
// checked in so the attribution is pinned against a fixed input.
const fixture = "testdata/campaign-local-16.cpu.pprof"

// fixtureSamples is the fixture's split in samples per layer, as
// `go tool pprof -traces` attributes the same file.
var fixtureSamples = map[string]int64{
	"sim": 497, "flow": 38, "fabric": 15, "chunk": 180, "core": 96,
	"guest": 81, "hv": 10, "workload": 21, "runtime": 238, "other": 5,
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		modulePrefix + "flow.(*Net).Start":                 "flow",
		modulePrefix + "flow.(*Net).Start.func1":           "flow",
		modulePrefix + "sim.(*Engine).Step":                "sim",
		modulePrefix + "strategy/adaptive.init":            "other",
		modulePrefix + "cluster.NewTestbed":                "other",
		"github.com/hybridmig/hybridmig.NewScenario":       "",
		"github.com/hybridmig/hybridmig/perfbench.iterate": "",
		"runtime.mallocgc":                                 "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttributeFixture pins the decoder and the attribution on the fixture.
func TestAttributeFixture(t *testing.T) {
	gz, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	split, err := attribute(gz)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, l := range layers {
		sum += split.ns[l]
		if got, want := split.samples[l], fixtureSamples[l]; got != want {
			t.Errorf("%s: %d samples, want %d", l, got, want)
		}
	}
	if sum != split.total || sum == 0 {
		t.Errorf("layer sum %d ns, profile total %d ns", sum, split.total)
	}
}

// TestLayersExist fails when a layer's package is renamed or moved: its CPU
// would otherwise shift silently into another layer or into other.cpu_s.
func TestLayersExist(t *testing.T) {
	for _, l := range layers {
		if l == "runtime" || l == "other" {
			continue
		}
		if !declaresPackage(t, filepath.Join("..", "internal", l), l) {
			t.Errorf("layer %s: no package %s in internal/%s", l, l, l)
		}
	}
}

// TestFixtureFramesResolve fails when a package the fixture's frames name
// no longer exists at that path, so the fixture is recaptured with the tree.
func TestFixtureFramesResolve(t *testing.T) {
	gz, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(gz)
	if err != nil {
		t.Fatal(err)
	}
	pkg := regexp.MustCompile(`^` + regexp.QuoteMeta(modulePrefix) + `([a-z0-9_/]+)\.`)
	seen := map[string]bool{}
	for _, name := range p.functions {
		m := pkg.FindStringSubmatch(p.strings[name])
		if m == nil || seen[m[1]] {
			continue
		}
		seen[m[1]] = true
		if !declaresPackage(t, filepath.Join("..", "internal", m[1]), filepath.Base(m[1])) {
			t.Errorf("fixture frame package internal/%s does not exist", m[1])
		}
	}
	if len(seen) == 0 {
		t.Fatal("fixture has no repo frames")
	}
}

// declaresPackage reports whether dir holds a non-test Go file of package name.
func declaresPackage(t *testing.T, dir, name string) bool {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if regexp.MustCompile(`(?m)^package ` + name + `\b`).Match(src) {
			return true
		}
	}
	return false
}
