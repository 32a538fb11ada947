package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/hybridmig/hybridmig/internal/scenario"
	"github.com/hybridmig/hybridmig/internal/service"
)

// quickstartSpec is the README's migsimd quickstart: one IOR VM migrated at
// t=5 s with the hybrid scheme.
const quickstartSpec = `{
  "vms": [{"name": "vm0", "node": 0, "approach": "our-approach",
           "workload": {"kind": "ior"}}],
  "migrations": [{"vm": "vm0", "dst": 1, "at_s": 5}]
}`

// Open-loop rates, requests per second, and the latency limit on p95.
const (
	lightRPS    = 10
	heavyRPS    = 30
	ladderStep  = 5
	ladderRungs = 4 // rungs above heavyRPS
	p95Limit    = 0.250
	// queueDepth is deep enough that a ladder rung past capacity shows as
	// latency and backlog rather than as shed requests.
	queueDepth = 64
)

// librarySpec decodes the quickstart spec and builds it as a library
// scenario with the given options.
func librarySpec(opts ...scenario.Option) (*service.Spec, *scenario.Scenario, error) {
	sp, err := service.DecodeSpec(strings.NewReader(quickstartSpec))
	if err != nil {
		return nil, nil, err
	}
	sc, err := sp.ToScenario(opts...)
	return sp, sc, err
}

// reference runs the quickstart spec through the library: the canonical
// result bytes every served result must equal, and the digest of its
// seed capture.
func reference() (want []byte, capture string, err error) {
	_, sc, err := librarySpec()
	if err != nil {
		return nil, "", err
	}
	res, err := sc.Run()
	if err != nil {
		return nil, "", err
	}
	if want, err = service.EncodeResult(res); err != nil {
		return nil, "", err
	}
	_, sc, err = librarySpec(scenario.WithSeedCapture())
	if err != nil {
		return nil, "", err
	}
	res, err = sc.Run()
	if err != nil {
		return nil, "", err
	}
	return want, digest(res.SeedCapture), nil
}

// daemon is an in-process migsimd driven through its HTTP handler with
// in-memory requests.
type daemon struct {
	srv  *service.Server
	h    http.Handler
	want []byte
	rec  *recorder
}

func startDaemon(want []byte) *daemon {
	srv := service.New(service.Config{Workers: runtime.NumCPU(), QueueDepth: queueDepth})
	srv.Start()
	return &daemon{srv: srv, h: srv.Handler(), want: want}
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
}

func (d *daemon) do(method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	d.h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// served is one request's outcome. latency is +Inf for a request that was
// shed or failed, so it misses every latency limit.
type served struct {
	latency          float64 // seconds from the scheduled send to the served result
	late             float64 // seconds the generator sent after the schedule
	shed, failed     bool
	mismatch         bool    // the served result differs from the library run
	queueWait, runMS float64 // milliseconds, from the run's status snapshot
}

// serve submits the quickstart spec, waits for the run to finish, and
// fetches its status and result through the handler.
func (d *daemon) serve(due time.Time) (s served) {
	s.late = time.Since(due).Seconds()
	s.latency = math.Inf(1)
	req := d.rec.begin("request", "request", "requests", 0, -1)
	defer d.rec.end(req, -1)
	var runID string
	var spans []int // the request's spans, tagged with its run id once known
	call := func(name, cat string, fn func()) {
		id := d.rec.begin(name, cat, "requests", req, -1)
		spans = append(spans, id)
		fn()
		d.rec.end(id, -1)
	}

	var sub *httptest.ResponseRecorder
	call("POST /v1/runs", "handler", func() { sub = d.do("POST", "/v1/runs", quickstartSpec) })
	switch sub.Code {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		s.shed = true
		return s
	default:
		s.failed = true
		return s
	}
	var snap service.Snapshot
	if err := json.Unmarshal(sub.Body.Bytes(), &snap); err != nil {
		s.failed = true
		return s
	}
	runID = snap.ID
	defer func() {
		for _, id := range append(spans, req) {
			d.rec.setRunID(id, runID)
		}
	}()
	run, err := d.srv.Get(runID)
	if err != nil {
		s.failed = true
		return s
	}
	call("wait", "run", func() { <-run.Done() })

	var res *httptest.ResponseRecorder
	call("GET /v1/runs/{id}/result", "handler", func() { res = d.do("GET", "/v1/runs/"+runID+"/result", "") })
	var body struct {
		State  service.State   `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if res.Code != http.StatusOK || json.Unmarshal(res.Body.Bytes(), &body) != nil || body.State != service.StateSucceeded {
		s.failed = true
		return s
	}
	s.latency = time.Since(due).Seconds()
	s.mismatch = !bytes.Equal(body.Result, d.want)

	var st *httptest.ResponseRecorder
	call("GET /v1/runs/{id}", "handler", func() { st = d.do("GET", "/v1/runs/"+runID, "") })
	if json.Unmarshal(st.Body.Bytes(), &snap) == nil {
		sub, _ := time.Parse(time.RFC3339Nano, snap.SubmittedAt)
		start, _ := time.Parse(time.RFC3339Nano, snap.StartedAt)
		end, _ := time.Parse(time.RFC3339Nano, snap.FinishedAt)
		s.queueWait = float64(start.Sub(sub).Nanoseconds()) / 1e6
		s.runMS = float64(end.Sub(start).Nanoseconds()) / 1e6
	}
	return s
}

// stepResult is one open-loop rate step.
type stepResult struct {
	rate     float64
	samples  []served
	cpu      float64 // process CPU seconds from the first send to the drained step
	backlog  bool    // the admission queue grew over the step
	lateMax  float64
	p50, p95 float64 // seconds, failures counted as +Inf
}

func (r stepResult) latencies() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.latency
	}
	return out
}

func (r stepResult) meets() bool { return r.p95 <= p95Limit && !r.backlog }

// step offers Poisson arrivals at rate for dur, each request sent on its own
// goroutine at its scheduled time whatever the state of earlier ones, then
// waits for every request of the step to be served.
func (d *daemon) step(rate float64, dur time.Duration, rng *rand.Rand) stepResult {
	cpu0 := cpuSeconds()
	start := time.Now()
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		samples []served
		depths  []int
	)
	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() { // queue depth every 10 ms over the arrival window
		defer close(sampled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				depths = append(depths, d.srv.QueueDepth())
			}
		}
	}()
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			break
		}
		due := start.Add(at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := d.serve(due)
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
		}()
	}
	time.Sleep(time.Until(start.Add(dur)))
	close(stopSampling)
	<-sampled
	wg.Wait()
	r := stepResult{rate: rate, samples: samples, cpu: cpuSeconds() - cpu0}
	for _, s := range samples {
		r.lateMax = math.Max(r.lateMax, s.late)
	}
	lat := r.latencies()
	r.p50, r.p95 = quantile(lat, 0.5), quantile(lat, 0.95)
	// The backlog grew when the queue over the last third of the window
	// averages more than one run deeper than over the first third.
	if third := len(depths) / 3; third > 0 {
		r.backlog = meanInt(depths[len(depths)-third:]) > meanInt(depths[:third])+1
	}
	return r
}

func meanInt(xs []int) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// serveSetup starts a fresh daemon and waits until its handler has accepted
// the first submission.
func serveSetup() error {
	d := startDaemon(nil)
	defer d.stop()
	if w := d.do("POST", "/v1/runs", quickstartSpec); w.Code != http.StatusAccepted {
		return fmt.Errorf("first submission: HTTP %d: %s", w.Code, w.Body.String())
	}
	return nil
}

// overheadMS is the service.overhead_ms probe: the served latency of one
// request on an idle daemon minus a library Run of the same spec, median
// over alternating pairs.
func overheadMS(d *daemon, pairs int) float64 {
	diffs := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		_, sc, err := librarySpec()
		if err != nil {
			continue
		}
		t := time.Now()
		if _, err := sc.Run(); err != nil {
			continue
		}
		lib := time.Since(t).Seconds()
		s := d.serve(time.Now())
		diffs = append(diffs, (s.latency-lib)*1e3)
	}
	return median(diffs)
}
