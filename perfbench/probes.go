package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// A probe times one layer operation in isolation, in a shape taken from the
// workload whose hot path it stands for. Probes use only the layers'
// exported constructors and methods.
type probe struct {
	metric string
	shape  string // the shape parameters, printed beside the result
	// setup builds the probe's standing state and returns the operation to
	// time and a teardown.
	setup func() (op func(), done func())
}

// Probe shapes, taken from the workloads.
const (
	fanInClients = 30  // fig4-pvfs-30: one client NIC per source VM
	fanInServers = 4   // PFS stripe servers every guest I/O fans out over
	fanInFlows   = 240 // standing flows of fig4's coupled component
	bottleneck   = 16  // campaign-local-16: every all-at-once migration flow on one destination NIC
	chunkSize    = 256 << 10
	imageSize    = 4 << 30 // 4 GB image of 256 KB chunks
)

var probes = []probe{
	{
		metric: "flow.fanin_op_ns",
		shape: fmt.Sprintf("AcquireFlow+Start+Cancel+ReleaseFlow over client NIC 0 and PFS server 0; %d standing flows across %d client NICs x %d PFS server links",
			fanInFlows, fanInClients, fanInServers),
		setup: func() (func(), func()) {
			e := sim.New()
			n := flow.NewNet(e)
			clients := make([]*flow.Link, fanInClients)
			for i := range clients {
				clients[i] = flow.NewLink(fmt.Sprintf("client%d.in", i), 117.5e6)
			}
			servers := make([]*flow.Link, fanInServers)
			for i := range servers {
				servers[i] = flow.NewLink(fmt.Sprintf("pfs%d.out", i), 117.5e6)
			}
			for i := 0; i < fanInFlows; i++ {
				n.Start(&flow.Flow{Links: []*flow.Link{clients[i%fanInClients], servers[i%fanInServers]}, Size: 1e15})
			}
			return churn(n, []*flow.Link{clients[0], servers[0]}), e.Stop
		},
	},
	{
		metric: "flow.bottleneck_op_ns",
		shape:  fmt.Sprintf("AcquireFlow+Start+Cancel+ReleaseFlow on one saturated destination NIC holding %d standing flows", bottleneck),
		setup: func() (func(), func()) {
			e := sim.New()
			n := flow.NewNet(e)
			l := flow.NewLink("dst.in", 117.5e6)
			for i := 0; i < bottleneck; i++ {
				n.Start(&flow.Flow{Links: []*flow.Link{l}, Size: 1e15})
			}
			return churn(n, []*flow.Link{l}), e.Stop
		},
	},
	{
		metric: "sim.handoff_ns",
		shape:  "one Proc sleep/wake round trip (Engine.Step resuming a process that sleeps again)",
		setup: func() (func(), func()) {
			e := sim.New()
			stop := false
			e.Go("pinger", func(p *sim.Proc) {
				for !stop {
					p.Sleep(1)
				}
			})
			e.Step() // the process reaches its first sleep
			return func() { e.Step() }, func() { stop = true; e.Step(); e.Shutdown() }
		},
	},
	{
		metric: "sim.event_ns",
		shape:  "Engine.After(1, fn) then Engine.Step firing it, on an otherwise empty queue",
		setup: func() (func(), func()) {
			e := sim.New()
			fn := func() {}
			return func() { e.After(1, fn); e.Step() }, func() {}
		},
	},
	{
		metric: "chunk.range_fill_ns",
		shape:  fmt.Sprintf("chunk.NewSet(%d) then AddRange over every chunk of a 4 GB image of 256 KB chunks", imageSize/chunkSize),
		setup: func() (func(), func()) {
			n := imageSize / chunkSize
			return func() { chunk.NewSet(n).AddRange(0, chunk.Idx(n-1)) }, func() {}
		},
	},
}

// churn is one flow start and cancel over path against the standing population.
func churn(n *flow.Net, path []*flow.Link) func() {
	return func() {
		f := n.AcquireFlow()
		f.Links = path
		f.Size = 1e15
		n.Start(f)
		n.Cancel(f)
		n.ReleaseFlow(f)
	}
}

// measure returns the median ns/op of a probe over batches sized to about
// 20 ms each.
func (p probe) measure(rec *recorder) float64 {
	op, done := p.setup()
	defer done()
	id := rec.begin(p.metric, "probe", "probes", 0, -1)
	defer rec.end(id, -1)
	batch := 1
	for {
		start := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		if time.Since(start) >= 20*time.Millisecond {
			break
		}
		batch *= 2
	}
	per := make([]float64, 9)
	for b := range per {
		start := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(batch)
	}
	return median(per)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; +Inf entries (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if frac == 0 || s[i+1] == s[i] {
		return s[i]
	}
	return s[i] + frac*(s[i+1]-s[i])
}
