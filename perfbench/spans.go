package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/hybridmig/hybridmig"
)

// span is one timed interval of the traced run. Host times are offsets from
// the recorder's origin; virtual times are simulation seconds, or -1 for a
// span that lives outside the simulation (a Validate call, a probe).
type span struct {
	id, parent         int
	name, cat, track   string
	hostStart, hostEnd time.Duration
	virtStart, virtEnd float64
	runID              string
}

// recorder keeps spans in memory until the traced run ends. A nil recorder
// records nothing, so untimed and timed paths share the same code.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id (ids start at 1; 0 means no parent).
func (r *recorder) begin(name, cat, track string, parent int, virt float64) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		id: len(r.spans) + 1, parent: parent, name: name, cat: cat, track: track,
		hostStart: now, hostEnd: -1, virtStart: virt, virtEnd: -1,
	})
	return len(r.spans)
}

// end closes span id at virtual time virt (ignored for spans without one).
func (r *recorder) end(id int, virt float64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.hostEnd = now
	if s.virtStart >= 0 {
		s.virtEnd = virt
	}
}

// setRunID tags span id with a migsimd run id.
func (r *recorder) setRunID(id int, run string) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].runID = run
	r.mu.Unlock()
}

// timed runs fn inside a span that has no virtual time.
func (r *recorder) timed(name, cat string, parent int, fn func()) {
	id := r.begin(name, cat, "bench", parent, -1)
	fn()
	r.end(id, -1)
}

// simObserver turns a run's trace events into spans: one per VM migration
// (requested to completed) with a child per storage phase, one per campaign
// and one per campaign job. It also accumulates the modelled phase times.
// Runs on the serial kernel deliver events from one goroutine at a time.
type simObserver struct {
	rec    *recorder
	parent int // the Run span

	events               int
	pushPhase, pullPhase float64 // virtual seconds in push and post-control phases
	migration, job       map[string]int
	phase                map[string]openPhase
	campaign             int
}

// openPhase is a VM's current storage-migration phase.
type openPhase struct {
	span int
	name string
	at   float64
}

func newSimObserver(rec *recorder, parent int) *simObserver {
	return &simObserver{
		rec: rec, parent: parent,
		migration: map[string]int{}, job: map[string]int{}, phase: map[string]openPhase{},
	}
}

func (o *simObserver) OnEvent(e hybridmig.Event) {
	o.events++
	switch e.Kind {
	case hybridmig.KindCampaignStarted:
		o.campaign = o.rec.begin("campaign "+e.Detail, "campaign", "campaign", o.parent, e.Time)
	case hybridmig.KindCampaignFinished:
		o.rec.end(o.campaign, e.Time)
		o.campaign = 0
	case hybridmig.KindJobQueued:
		parent := o.campaign
		if parent == 0 {
			parent = o.parent
		}
		o.job[e.VM] = o.rec.begin("job "+e.VM, "job", e.VM, parent, e.Time)
	case hybridmig.KindJobFinished:
		o.rec.end(o.job[e.VM], e.Time)
		delete(o.job, e.VM)
	case hybridmig.KindMigrationRequested:
		parent := o.job[e.VM]
		if parent == 0 {
			parent = o.parent
		}
		o.migration[e.VM] = o.rec.begin("migrate "+e.VM, "migration", e.VM, parent, e.Time)
	case hybridmig.KindPhase:
		o.closePhase(e.VM, e.Time)
		if e.Detail == "released" || strings.HasPrefix(e.Detail, "aborted") {
			return
		}
		o.phase[e.VM] = openPhase{o.rec.begin(e.Detail, "phase", e.VM, o.migration[e.VM], e.Time), e.Detail, e.Time}
	case hybridmig.KindMigrationCompleted, hybridmig.KindMigrationAborted:
		o.closePhase(e.VM, e.Time)
		o.rec.end(o.migration[e.VM], e.Time)
		delete(o.migration, e.VM)
	}
}

func (o *simObserver) closePhase(vm string, t float64) {
	p, open := o.phase[vm]
	if !open {
		return
	}
	switch p.name {
	case "push":
		o.pushPhase += t - p.at
	case "control-transfer":
		o.pullPhase += t - p.at
	}
	o.rec.end(p.span, t)
	delete(o.phase, vm)
}

// chromeEvent is one Chrome Trace Event Format record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome Trace Event JSON: process 1 lays
// every span out on host time, process 2 lays the simulation spans out on
// virtual time. A span never closed ends where the recording ended.
func (r *recorder) writeChrome(path string, meta map[string]any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	last := time.Since(r.origin)
	tids := map[string]int{}
	tid := func(track string) int {
		if _, ok := tids[track]; !ok {
			tids[track] = len(tids) + 1
		}
		return tids[track]
	}
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "host time"}},
		{Name: "process_name", Ph: "M", Pid: 2, Args: map[string]any{"name": "virtual time"}},
	}
	for _, s := range r.spans {
		end := s.hostEnd
		if end < 0 {
			end = last
		}
		args := map[string]any{"id": s.id, "parent": s.parent}
		if s.runID != "" {
			args["run_id"] = s.runID
		}
		if s.virtStart >= 0 {
			args["virt_start_s"], args["virt_end_s"] = s.virtStart, s.virtEnd
		}
		t := tid(s.track)
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X", Pid: 1, Tid: t, Args: args,
			Ts: float64(s.hostStart.Nanoseconds()) / 1e3, Dur: float64((end - s.hostStart).Nanoseconds()) / 1e3,
		})
		if s.virtStart >= 0 && s.virtEnd >= s.virtStart {
			evs = append(evs, chromeEvent{
				Name: s.name, Cat: s.cat, Ph: "X", Pid: 2, Tid: t, Args: args,
				Ts: s.virtStart * 1e6, Dur: (s.virtEnd - s.virtStart) * 1e6,
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "metadata": meta})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
