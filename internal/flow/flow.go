// Package flow implements a flow-level network/resource model with max-min
// fair bandwidth sharing.
//
// A Flow is a bulk transfer of a known size that traverses an ordered set of
// capacity Links (e.g. source NIC -> switch fabric -> destination NIC, or a
// single disk link for local I/O). The rates are a max-min fair allocation
// over the active flows, computed by progressive filling: repeatedly find
// the most constrained link, give every unfrozen flow crossing it an equal
// share of that link's residual capacity, and freeze those flows. Flows may
// additionally carry an individual rate cap (application pacing, hypervisor
// migration speed limits), which is treated as a private link.
//
// This is the standard fluid approximation used by flow-level datacenter
// simulators: it captures who saturates which resource and when, without
// simulating individual packets.
//
// Allocation is incremental and component-scoped: max-min fairness is
// separable across connected components of the link-sharing graph, so a flow
// change only re-runs progressive filling over the flows and links reachable
// from the changed flow. Links that provably cannot saturate (see
// Link.transparent) do not couple their flows, so a non-blocking switch
// fabric never merges otherwise-disjoint migrations into one component.
//
// Starts are coalesced per instant: Start places the flow at once but defers
// the refill to the engine's BeforeAdvance hook, so all the flows started at
// one instant (a striped parallel-file-system request fans out into one per
// server) share a single refill seeded from all of them. Cancel, SetCapacity
// and completion sweeps refill immediately, and every read of rates or bytes
// runs a pending refill first, so no caller observes a stale allocation.
//
// Byte accounting is settled lazily per flow (a flow's remaining count is
// integrated only when its rate changes, it completes, or it is queried),
// and completions are tracked in an indexed min-heap so the next completion
// needs no scan. Determinism is preserved: links are filled in
// first-occurrence (breadth-first discovery) order, completion ties break
// on activation order, and callbacks fire in activation-table order,
// exactly as the former global recompute did.
//
// There is one allocation path: every active flow is listed on every link it
// crosses, carries its own rate and byte anchor, and holds its own
// completion-heap entry. A refill therefore costs time linear in the flows
// of the component it touches. Flows that share their only binding link get
// equal rates from the fill itself; no workload puts enough of them on one
// link for aggregating them to pay (DESIGN.md §20).
package flow

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/hybridmig/hybridmig/internal/sim"
)

// Tag classifies a flow for traffic accounting; the experiment harness
// attributes bytes to migration phases using these.
type Tag uint8

// Traffic tags. TagOther is the zero value.
const (
	TagOther       Tag = iota
	TagMemory          // hypervisor memory pre-copy traffic
	TagStoragePush     // migration manager active push (source -> destination)
	TagStoragePull     // migration manager pull/prefetch (destination <- source)
	TagBlockMig        // hypervisor incremental block migration (precopy baseline)
	TagMirror          // synchronous write mirroring traffic
	TagRepo            // repository (base image) reads
	TagPFS             // parallel file system I/O
	TagApp             // application communication (e.g. CM1 halo exchange)
	TagControl         // small control messages
	TagBackground      // injected cross-tenant background traffic
	numTags
)

// NumTags is the number of defined tags; Tag(0) through Tag(NumTags-1) are
// all valid, so reporters can iterate by index without allocating.
const NumTags = int(numTags)

var tagNames = [numTags]string{
	"other", "memory", "push", "pull", "blockmig", "mirror", "repo", "pfs", "app", "control",
	"background",
}

func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return fmt.Sprintf("tag(%d)", uint8(t))
}

// allTags is the shared backing array for Tags.
var allTags = func() [numTags]Tag {
	var a [numTags]Tag
	for i := range a {
		a[i] = Tag(i)
	}
	return a
}()

// Tags returns all defined tags in order, for iteration by reporters. The
// returned slice is shared and immutable: callers must not modify it.
func Tags() []Tag { return allTags[:] }

// Link is a capacity-constrained resource (a NIC direction, a switch fabric,
// a disk). Bytes flowing through it are accumulated for utilization reports.
type Link struct {
	Name string
	// Capacity is the link rate in bytes per second. It must not be written
	// directly once flows are active; use Net.SetCapacity, which reflows the
	// affected component and keeps the saturability bounds consistent.
	Capacity float64

	flows []*Flow // active flows crossing this link
	bytes float64 // total bytes carried (settled lazily; see Bytes)

	// Saturability bound: ubSum is the sum, over crossing flows, of each
	// flow's provable rate ceiling from its other constraints (cap or other
	// links); ubInf counts flows with no such ceiling. While ubSum stays
	// below capacity the link can never be a bottleneck ("transparent") and
	// does not glue its flows into one recompute component.
	ubSum float64
	ubInf int

	// scratch for rate computation
	frozenRate float64
	unfrozen   int
	mark       uint64 // epoch stamp for component collection
}

// ubMarginFactor keeps a strict margin below capacity in the transparency
// test, so float drift in the incrementally maintained ubSum can never
// declare a genuinely saturable link transparent.
const ubMarginFactor = 1 - 1e-9

// transparent reports whether the link provably cannot be a bottleneck:
// even if every crossing flow ran at its ceiling, the link would not
// saturate. Progressive filling can then never pick it as the arg-min, so
// it neither constrains rates nor couples otherwise-disjoint flows. This is
// what makes a non-blocking switch fabric free: flows crossing it interact
// only through their NICs and disks.
func (l *Link) transparent() bool {
	return l.ubInf == 0 && l.ubSum <= l.Capacity*ubMarginFactor
}

// NewLink returns a link with the given name and capacity in bytes/second.
func NewLink(name string, capacity float64) *Link {
	if capacity <= 0 {
		panic("flow: link capacity must be positive")
	}
	return &Link{Name: name, Capacity: capacity}
}

// Bytes returns the total number of bytes that have crossed the link.
func (l *Link) Bytes() float64 {
	if len(l.flows) > 0 {
		n := l.flows[0].net
		n.flush()
		for _, f := range l.flows {
			n.settle(f, n.lastEvent)
		}
	}
	return l.bytes
}

// ActiveFlows returns the number of flows currently crossing the link.
func (l *Link) ActiveFlows() int { return len(l.flows) }

// addUB / subUB move a flow's saturability contribution onto / off the link;
// list membership is managed separately by the caller.
func (l *Link) addUB(f *Flow) {
	if u := f.ubFor(l); math.IsInf(u, 1) {
		l.ubInf++
	} else {
		l.ubSum += u
	}
}

func (l *Link) subUB(f *Flow) {
	if u := f.ubFor(l); math.IsInf(u, 1) {
		l.ubInf--
	} else {
		l.ubSum -= u
	}
}

// listOn appends f to the flow list of its k-th link, recording the
// position so unlistFrom can remove it without a scan.
func (f *Flow) listOn(k int) {
	l := f.Links[k]
	f.linkPos[k] = int32(len(l.flows))
	l.flows = append(l.flows, f)
}

// unlistFrom swap-removes f from the flow list of its k-th link in O(1):
// the list's last flow moves into f's slot. List order, and with it fill
// order, is therefore a function of the additions and removals alone.
func (f *Flow) unlistFrom(k int) {
	l := f.Links[k]
	i := f.linkPos[k]
	last := int32(len(l.flows) - 1)
	if i != last {
		g := l.flows[last]
		l.flows[i] = g
		g.movePos(l, last, i)
	}
	l.flows[last] = nil
	l.flows = l.flows[:last]
	f.linkPos[k] = -1
}

// movePos updates the recorded position of f on link l from one slot to
// another. A path may cross the same link twice, so the entry is matched by
// link and old slot.
func (f *Flow) movePos(l *Link, from, to int32) {
	for k, lk := range f.Links {
		if lk == l && f.linkPos[k] == from {
			f.linkPos[k] = to
			return
		}
	}
}

// Flow is a bulk transfer in progress.
type Flow struct {
	Links   []*Link // resources traversed; may be empty for an infinitely fast local transfer
	Size    float64 // total bytes
	MaxRate float64 // per-flow cap in bytes/s; 0 means uncapped
	Tag     Tag
	OnDone  func() // optional completion callback, runs in engine context

	remaining float64
	rate      float64
	frozen    bool // scratch for progressive filling
	active    bool
	doneCond  sim.Cond
	net       *Net
	index     int // position in net.flows

	// incremental-allocation state. Byte integration is anchored at the
	// flow's last rate change: remaining at time t is always computed as
	// anchorRem - rate*(t - anchorT), never by accumulating rate*dt slices.
	// Settles triggered between rate changes (queries, or another
	// component's completion sweep peeking at the heap top) are therefore
	// pure reads — they cannot perturb the value the flow will have at its
	// next rate change, which keeps a component's trajectory bit-identical
	// no matter what unrelated flows share the Net.
	lastSettle sim.Time // when remaining/bytes were last integrated
	anchorT    sim.Time // time of the last rate change
	anchorRem  float64  // remaining bytes at the last rate change
	compT      sim.Time // projected completion time; +Inf while stalled
	heapIdx    int      // position in net.compHeap, -1 while inactive
	seq        uint64   // activation order, tie-break in the completion heap
	mark       uint64   // epoch stamp for component collection
	prevRate   float64  // rate before the current component recompute

	// Two smallest link capacities on the path (for the saturability bound):
	// the flow's rate ceiling as seen from link l is the smallest capacity
	// among its OTHER links — minCap, or minCap2 when l is the unique
	// smallest — further clamped by MaxRate.
	minCap, minCap2 float64
	minCapLink      *Link

	// linkPos[k] is the flow's index in Links[k].flows. It aliases posBuf for
	// the short paths every fabric route uses, so tracking positions never
	// allocates.
	linkPos []int32
	posBuf  [4]int32
}

// scanCaps records the two smallest link capacities on the flow's path.
func (f *Flow) scanCaps() {
	f.minCap, f.minCap2, f.minCapLink = math.Inf(1), math.Inf(1), nil
	for _, l := range f.Links {
		if l.Capacity < f.minCap {
			f.minCap2 = f.minCap
			f.minCap, f.minCapLink = l.Capacity, l
		} else if l.Capacity < f.minCap2 {
			f.minCap2 = l.Capacity
		}
	}
}

// ubFor returns the flow's provable rate ceiling as seen from link l: no
// allocation can ever run the flow faster than its cap or its narrowest
// other link.
func (f *Flow) ubFor(l *Link) float64 {
	c := f.minCap
	if l == f.minCapLink {
		c = f.minCap2
	}
	if f.MaxRate > 0 && f.MaxRate < c {
		c = f.MaxRate
	}
	return c
}

// Remaining returns the bytes left to transfer (settled lazily; accurate
// after any net activity at the current instant).
func (f *Flow) Remaining() float64 {
	if f.active {
		f.net.flush()
		f.net.settle(f, f.net.lastEvent)
	}
	return f.remaining
}

// Rate returns the current allocated rate in bytes/s.
func (f *Flow) Rate() float64 {
	if f.net != nil {
		f.net.flush()
	}
	return f.rate
}

// Done reports whether the flow has completed or been canceled.
func (f *Flow) Done() bool { return !f.active && f.net != nil }

// Net manages the set of active flows and their fair-share rates.
type Net struct {
	eng   *sim.Engine
	flows []*Flow

	byTag     [numTags]float64
	completed uint64 // count of completed flows
	startSeq  uint64
	lastEvent sim.Time // time of the last flow start/cancel/completion

	// compHeap is an indexed min-heap of active flows ordered by projected
	// completion (compT, seq); its top is the next completion sweep.
	compHeap   []*Flow
	sweepTimer sim.Timer
	sweepFn    func() // cached closure so rescheduling never allocates

	// reusable scratch for component collection and the sweep batch
	epoch     uint64
	compFlows []*Flow
	compLinks []*Link
	ordered   []*Link
	done      []*Flow

	// free list for AcquireFlow/ReleaseFlow
	free []*Flow

	// Flows started at the current instant whose component has not been
	// refilled yet. The refill is deferred to the engine's BeforeAdvance
	// hook (armed once per instant) or to the next read or mutation,
	// whichever comes first.
	pending []*Flow
	armed   bool
	flushFn func() // cached closure so arming never allocates

	stats Stats
}

// Stats counts allocator work. Every field is a pure function of the flow
// operations applied, so two runs of one scenario report identical counts.
type Stats struct {
	Starts uint64 // flows passed to Start
	// Refills counts max-min refills: one per flush of pending starts, per
	// effective Cancel or SetCapacity, and per sweep that retires flows.
	Refills      uint64
	FlowsVisited uint64 // flows collected, summed over refills
	LinksVisited uint64 // links collected, summed over refills
}

// NewNet returns a flow network bound to the engine.
func NewNet(eng *sim.Engine) *Net {
	n := &Net{eng: eng}
	n.sweepFn = n.completionSweep
	n.flushFn = n.endInstant
	return n
}

// Stats returns the allocator's work counters.
func (n *Net) Stats() Stats { return n.stats }

// Engine returns the simulation engine.
func (n *Net) Engine() *sim.Engine { return n.eng }

// BytesByTag returns the total bytes transferred for the tag across all
// links (each flow's bytes are counted once, regardless of path length).
// Counters are accurate as of the last net activity at the current instant.
func (n *Net) BytesByTag(t Tag) float64 {
	n.settleAll()
	return n.byTag[t]
}

// TotalBytes returns bytes transferred across all tags, accurate as of the
// last net activity at the current instant.
func (n *Net) TotalBytes() float64 {
	n.settleAll()
	var s float64
	for _, v := range n.byTag {
		s += v
	}
	return s
}

// CompletedFlows returns the number of flows that ran to completion.
func (n *Net) CompletedFlows() uint64 { return n.completed }

// ActiveFlows returns the number of flows currently in progress.
func (n *Net) ActiveFlows() int { return len(n.flows) }

// Start activates a flow. Zero-size flows complete immediately (their OnDone
// fires before Start returns). A flow must not be started twice.
func (n *Net) Start(f *Flow) {
	if f.net != nil {
		panic("flow: flow started twice")
	}
	if f.Size < 0 || math.IsNaN(f.Size) || math.IsInf(f.Size, 0) {
		panic(fmt.Sprintf("flow: invalid size %v", f.Size))
	}
	n.stats.Starts++
	f.net = n
	f.remaining = f.Size
	if f.Size <= epsBytes {
		n.finish(f)
		return
	}
	if len(f.Links) == 0 && f.MaxRate <= 0 {
		// Infinitely fast: complete instantly.
		n.finish(f)
		return
	}
	f.active = true
	f.lastSettle = n.eng.Now()
	f.anchorT = f.lastSettle
	f.anchorRem = f.remaining
	n.lastEvent = f.lastSettle
	f.compT = math.Inf(1)
	f.heapIdx = -1
	f.seq = n.startSeq
	n.startSeq++
	f.index = len(n.flows)
	n.flows = append(n.flows, f)
	f.scanCaps()
	if len(f.Links) <= len(f.posBuf) {
		f.linkPos = f.posBuf[:len(f.Links)]
	} else {
		f.linkPos = make([]int32, len(f.Links))
	}
	for k, l := range f.Links {
		l.addUB(f)
		f.listOn(k)
	}
	n.heapPush(f)
	// The refill is shared by every start at this instant: see flush.
	n.pending = append(n.pending, f)
	if !n.armed {
		n.armed = true
		n.eng.BeforeAdvance(n.flushFn)
	}
}

// endInstant is the engine's BeforeAdvance hook: the instant's starts are
// all in, so their shared refill runs now.
func (n *Net) endInstant() {
	n.armed = false
	n.flush()
}

// flush runs the one max-min refill owed by the flows started since the
// last refill. Each start placed its flow eagerly (saturability bounds,
// link lists, heap entry), and starts only ever turn links opaque, so the
// pending flows and their links seed every component a start touched.
// Max-min allocation depends only on the flow set, so one refill over that
// union yields the allocation of the final set. Every read of rates or
// bytes and every other mutation flushes first, so no caller can observe a
// stale allocation.
func (n *Net) flush() {
	if len(n.pending) == 0 {
		return
	}
	n.resetComponent()
	for _, f := range n.pending {
		n.seedFlow(f)
		n.seedLinks(f.Links)
	}
	clear(n.pending)
	n.pending = n.pending[:0]
	n.expandComponent()
	n.recomputeComponent()
	n.reschedule()
}

// Cancel removes an active flow before completion and returns the bytes that
// were not transferred. OnDone does not fire for canceled flows. Canceling a
// finished flow returns 0.
func (n *Net) Cancel(f *Flow) float64 {
	if !f.active {
		return 0
	}
	n.flush()
	n.lastEvent = n.eng.Now()
	n.settle(f, n.lastEvent)
	rem := f.remaining
	// Seed before deactivating: a link the departing flow kept opaque may
	// turn transparent once the flow leaves, but the flows it was
	// constraining still need their rates recomputed (and released).
	n.resetComponent()
	n.seedLinks(f.Links)
	n.deactivate(f)
	f.doneCond.Broadcast(n.eng)
	n.expandComponent()
	n.recomputeComponent()
	n.reschedule()
	return rem
}

// SetCapacity changes a link's capacity mid-run (time-varying fabrics:
// degradation, blackout recovery, tenant rate limits) and incrementally
// reflows everyone affected. The component reachable from the link under its
// PRE-change transparency is collected first — a link that turns transparent
// must still release the flows it was constraining — then the capacity and
// every crossing flow's saturability ceilings are updated, the closure is
// re-expanded under the POST-change transparency (a link that turns opaque
// pulls its flows in), and the component is refilled with the completion
// heap rescheduled. Flows whose allocated rate is unchanged keep their lazy
// accounting untouched, exactly as in Start and Cancel.
func (n *Net) SetCapacity(l *Link, c float64) {
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		panic(fmt.Sprintf("flow: invalid capacity %v for link %s", c, l.Name))
	}
	if c == l.Capacity {
		return
	}
	n.flush()
	n.lastEvent = n.eng.Now()
	n.resetComponent()
	// Force-seed the link itself: even a currently transparent link must have
	// its flows re-examined, since the new capacity may make it opaque.
	if l.mark != n.epoch {
		l.mark = n.epoch
		n.compLinks = append(n.compLinks, l)
	}
	n.expandComponent()
	l.Capacity = c
	// Every crossing flow's rate ceiling may have changed; re-derive its two
	// smallest path capacities and move its contribution on every link it
	// crosses (which may flip those links' transparency).
	for _, f := range l.flows {
		for _, lk := range f.Links {
			lk.subUB(f)
		}
		f.scanCaps()
		for _, lk := range f.Links {
			lk.addUB(f)
		}
	}
	// Re-expand: every link whose bound moved is crossed by a flow crossing
	// l, all of which were collected above, so links that just turned opaque
	// join the component and pull their flows in.
	for _, f := range n.compFlows {
		n.seedLinks(f.Links)
	}
	n.expandComponent()
	n.recomputeComponent()
	n.reschedule()
}

// Wait parks the process until the flow completes or is canceled.
func (f *Flow) Wait(p *sim.Proc) {
	for f.net == nil || f.active {
		f.doneCond.Wait(p)
	}
}

// epsBytes is the completion tolerance: flows within this many bytes of done
// are finished, absorbing float round-off.
const epsBytes = 1e-3

// minStep is the smallest schedulable completion delay. Below it, adding
// the delay to the clock can round to no time advance at all (float64 has
// ~2e-16 relative precision), which would loop the completion event forever;
// flows that close to done are simply finished.
const minStep = 1e-9

// settle integrates elapsed time into the flow's remaining count and its
// per-link and per-tag byte counters, at the flow's current rate.
func (n *Net) settle(f *Flow, now sim.Time) {
	n.settleRate(f, now, f.rate)
}

// settleRate is settle with an explicit rate: during a component recompute
// the flow's new rate is already in place, so elapsed time since the last
// settle is charged at the rate that was in effect before the change. The
// remaining count is recomputed from the rate-change anchor, so the result
// at any instant is independent of how many intermediate settles happened.
func (n *Net) settleRate(f *Flow, now sim.Time, rate float64) {
	if now <= f.lastSettle {
		return
	}
	f.lastSettle = now
	if rate <= 0 {
		return
	}
	rem := f.anchorRem - rate*(now-f.anchorT)
	if rem < 0 {
		rem = 0
	}
	d := f.remaining - rem
	if d <= 0 {
		return
	}
	f.remaining = rem
	n.byTag[f.Tag] += d
	for _, l := range f.Links {
		l.bytes += d
	}
}

// settleAll brings every active flow's accounting up to the last net event,
// in activation-table order for determinism. Queries settle to lastEvent
// rather than the clock: rate allocations only change at net events, and the
// pre-incremental model accumulated bytes exactly there, so this keeps query
// results aligned with the original "accurate after any net activity at the
// current instant" contract.
func (n *Net) settleAll() {
	n.flush()
	for _, f := range n.flows {
		n.settle(f, n.lastEvent)
	}
}

// deactivate unlinks a flow from the network, its links, and the completion
// heap. The caller settles the flow first.
func (n *Net) deactivate(f *Flow) {
	f.active = false
	last := len(n.flows) - 1
	n.flows[f.index] = n.flows[last]
	n.flows[f.index].index = f.index
	n.flows[last] = nil
	n.flows = n.flows[:last]
	for k, l := range f.Links {
		f.unlistFrom(k)
		l.subUB(f)
		if len(l.flows) == 0 {
			l.ubSum = 0 // exact reset: cancels accumulated float drift
		}
	}
	n.heapRemove(f)
	f.rate = 0
}

// finish marks a flow complete, accounting any remaining round-off sliver,
// and fires callbacks.
func (n *Net) finish(f *Flow) {
	if f.remaining > 0 {
		// Account the final sliver that settle() rounded off.
		n.byTag[f.Tag] += f.remaining
		for _, l := range f.Links {
			l.bytes += f.remaining
		}
		f.remaining = 0
	}
	n.completed++
	f.doneCond.Broadcast(n.eng)
	if f.OnDone != nil {
		f.OnDone()
	}
}

// Component collection: the connected component of links and active flows
// reachable from a seed (a just-started flow, or the link paths of removed
// flows) is gathered into the net's reusable scratch buffers. Epoch stamps
// on links and flows replace a per-call map.

// resetComponent starts a fresh collection epoch.
func (n *Net) resetComponent() {
	n.epoch++
	n.compFlows = n.compFlows[:0]
	n.compLinks = n.compLinks[:0]
}

// seedFlow adds a flow to the component under collection.
func (n *Net) seedFlow(f *Flow) {
	if f.active && f.mark != n.epoch {
		f.mark = n.epoch
		n.compFlows = append(n.compFlows, f)
	}
}

// seedLinks adds links to the component under collection. Transparent links
// cannot constrain anyone, so they neither join the component nor pull in
// the flows crossing them.
func (n *Net) seedLinks(links []*Link) {
	for _, l := range links {
		if l.mark != n.epoch && !l.transparent() {
			l.mark = n.epoch
			n.compLinks = append(n.compLinks, l)
		}
	}
}

// expandComponent runs the breadth-first closure over the bipartite
// link/flow sharing graph; compLinks doubles as the work queue.
func (n *Net) expandComponent() {
	for i := 0; i < len(n.compLinks); i++ {
		for _, f := range n.compLinks[i].flows {
			if f.mark == n.epoch {
				continue
			}
			f.mark = n.epoch
			n.compFlows = append(n.compFlows, f)
			for _, lk := range f.Links {
				if lk.mark != n.epoch && !lk.transparent() {
					lk.mark = n.epoch
					n.compLinks = append(n.compLinks, lk)
				}
			}
		}
	}
}

// recomputeComponent performs progressive-filling max-min fair allocation
// over the collected component. Links are processed in first-occurrence
// order and flows in (deterministic) component-discovery order; the freeze
// SET per filling round is order-independent, so iteration order only
// re-associates float accumulation, never changes the allocation. Flows
// whose allocated rate is unchanged by the fill keep their lazy accounting
// state untouched: no settle, no completion-heap update.
func (n *Net) recomputeComponent() {
	n.stats.Refills++
	n.stats.FlowsVisited += uint64(len(n.compFlows))
	n.stats.LinksVisited += uint64(len(n.compLinks))
	if len(n.compFlows) == 0 {
		return
	}
	// Reset scratch state, remembering pre-fill rates.
	anyCapped := false
	for _, f := range n.compFlows {
		f.prevRate = f.rate
		f.frozen = false
		f.rate = 0
		anyCapped = anyCapped || f.MaxRate > 0
	}
	// The involved links, in deterministic first-occurrence order, are the
	// BFS discovery list; only currently-opaque ones participate in the fill
	// (a transparent link can never bind, and on the removal path it may
	// carry flows of other components, which must not be frozen here).
	n.ordered = n.ordered[:0]
	for _, l := range n.compLinks {
		if !l.transparent() {
			n.ordered = append(n.ordered, l)
			l.frozenRate = 0
			l.unfrozen = len(l.flows)
		}
	}
	remaining := len(n.compFlows)
	for remaining > 0 {
		// Candidate share: the smallest equal-share across constrained
		// links. Links with no unfrozen flows left are compacted away so
		// later rounds scan only live bottleneck candidates.
		share := math.Inf(1)
		live := n.ordered[:0]
		for _, l := range n.ordered {
			if l.unfrozen == 0 {
				continue
			}
			live = append(live, l)
			s := (l.Capacity - l.frozenRate) / float64(l.unfrozen)
			if s < share {
				share = s
			}
		}
		n.ordered = live
		if math.IsInf(share, 1) {
			// Only cap-limited flows remain (no shared links).
			for _, f := range n.compFlows {
				if !f.frozen {
					f.freezeAt(f.MaxRate)
					remaining--
				}
			}
			break
		}
		if share < 0 {
			share = 0
		}
		if anyCapped {
			// Flows whose individual cap is below the share freeze at their
			// cap first; this releases capacity for the rest.
			capped := false
			for _, f := range n.compFlows {
				if f.frozen || f.MaxRate <= 0 || f.MaxRate > share {
					continue
				}
				f.freezeAt(f.MaxRate)
				remaining--
				capped = true
			}
			if capped {
				continue
			}
		}
		// Freeze flows on the bottleneck link(s) at the share rate.
		for _, l := range n.ordered {
			if l.unfrozen == 0 {
				continue
			}
			s := (l.Capacity - l.frozenRate) / float64(l.unfrozen)
			if s > share+1e-12 {
				continue
			}
			// All unfrozen flows on this link freeze at share.
			for _, f := range l.flows {
				if !f.frozen {
					f.freezeAt(share)
					remaining--
				}
			}
		}
	}
	// Apply the new allocation: settle elapsed time at the old rate and
	// reproject the completion for every flow whose rate actually changed.
	// Heap repair strategy: one O(n) heapify beats O(k log n) individual
	// fixes once a fill moves most of the heap (a saturated shared link
	// reshares every crossing flow at once); otherwise each flow is fixed
	// IMMEDIATELY after its key changes — sequential fixes are only sound
	// while at most one key is stale at a time. The pop order is a total
	// order on (compT, seq), so either repair yields identical sweeps.
	changed := 0
	for _, f := range n.compFlows {
		if f.rate != f.prevRate {
			changed++
		}
	}
	if changed == 0 {
		return
	}
	rebuild := changed*4 >= len(n.compHeap)
	now := n.eng.Now()
	for _, f := range n.compFlows {
		if f.rate == f.prevRate {
			continue
		}
		n.settleRate(f, now, f.prevRate)
		f.anchorT = now
		f.anchorRem = f.remaining
		if f.rate > 0 {
			f.compT = now + f.remaining/f.rate
		} else {
			f.compT = math.Inf(1)
		}
		if !rebuild {
			n.heapFix(f)
		}
	}
	if rebuild {
		for i := len(n.compHeap)/2 - 1; i >= 0; i-- {
			n.heapDown(i)
		}
	}
}

// freezeAt fixes the flow's rate and charges it to each of its links.
func (f *Flow) freezeAt(rate float64) {
	f.frozen = true
	f.rate = rate
	for _, l := range f.Links {
		l.frozenRate += rate
		l.unfrozen--
	}
}

// reschedule (re)arms the sweep timer for the earliest projected completion.
func (n *Net) reschedule() {
	n.sweepTimer.Cancel()
	if len(n.compHeap) == 0 {
		return
	}
	at := n.compHeap[0].compT
	if math.IsInf(at, 1) {
		return // everything stalled (shouldn't happen with positive capacities)
	}
	if floor := n.eng.Now() + minStep; at < floor {
		at = floor
	}
	n.sweepTimer = n.eng.At(at, n.sweepFn)
}

// completionSweep retires every flow that has drained (or is so close that
// its completion delay would vanish under clock round-off), recomputes the
// affected components, and fires completion callbacks.
func (n *Net) completionSweep() {
	n.flush()
	now := n.eng.Now()
	n.lastEvent = now
	n.done = n.done[:0]
	for len(n.compHeap) > 0 {
		f := n.compHeap[0]
		due := f.compT <= now+minStep
		if !due {
			// The projection says "not yet": settle and re-check against the
			// byte tolerance, which absorbs float round-off near the end.
			n.settle(f, now)
			due = f.remaining <= epsBytes
		}
		if !due {
			break
		}
		n.heapRemove(f)
		n.done = append(n.done, f)
	}
	if len(n.done) > 0 {
		// Finish in activation (seq) order. The flow table's index order is
		// perturbed by swap-removal of unrelated flows, so it is not stable
		// across Nets holding different flow populations; activation order
		// is, which keeps a component's completion callbacks in the same
		// relative order whether it shares the Net with other components
		// (serial kernel) or owns it alone (sharded kernel).
		slices.SortFunc(n.done, func(a, b *Flow) int { return cmp.Compare(a.seq, b.seq) })
		for _, f := range n.done {
			n.settle(f, now)
		}
		// Seed before deactivating (pre-removal transparency; see Cancel).
		n.resetComponent()
		for _, f := range n.done {
			n.seedLinks(f.Links)
		}
		for _, f := range n.done {
			n.deactivate(f)
		}
		n.expandComponent()
		// Recompute before firing callbacks so callbacks observe a consistent
		// allocation; callbacks may start new flows, which recompute again.
		n.recomputeComponent()
	}
	n.reschedule()
	for _, f := range n.done {
		n.finish(f)
	}
}

// Completion heap: an indexed binary min-heap of active flows keyed by
// (compT, seq), so the next completion is O(1) to find and a rate change
// repositions a flow in O(log n).

func (n *Net) heapLess(i, j int) bool {
	a, b := n.compHeap[i], n.compHeap[j]
	if a.compT != b.compT {
		return a.compT < b.compT
	}
	return a.seq < b.seq
}

func (n *Net) heapSwap(i, j int) {
	h := n.compHeap
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (n *Net) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !n.heapLess(i, parent) {
			break
		}
		n.heapSwap(i, parent)
		i = parent
	}
}

func (n *Net) heapDown(i int) {
	s := len(n.compHeap)
	for {
		l := 2*i + 1
		if l >= s {
			return
		}
		least := l
		if r := l + 1; r < s && n.heapLess(r, l) {
			least = r
		}
		if !n.heapLess(least, i) {
			return
		}
		n.heapSwap(i, least)
		i = least
	}
}

func (n *Net) heapPush(f *Flow) {
	f.heapIdx = len(n.compHeap)
	n.compHeap = append(n.compHeap, f)
	n.heapUp(f.heapIdx)
}

func (n *Net) heapFix(f *Flow) {
	n.heapDown(f.heapIdx)
	n.heapUp(f.heapIdx)
}

func (n *Net) heapRemove(f *Flow) {
	i := f.heapIdx
	if i < 0 {
		return
	}
	last := len(n.compHeap) - 1
	if i != last {
		n.heapSwap(i, last)
	}
	n.compHeap[last] = nil
	n.compHeap = n.compHeap[:last]
	if i != last {
		n.heapDown(i)
		n.heapUp(i)
	}
	f.heapIdx = -1
}

// AcquireFlow returns a zeroed Flow from the net's free list, or a new one
// if the list is empty. Pair with ReleaseFlow to run construct-and-forget
// transfers without a per-flow allocation.
func (n *Net) AcquireFlow() *Flow {
	if k := len(n.free); k > 0 {
		f := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return f
	}
	return &Flow{}
}

// ReleaseFlow returns a finished (or never-started) flow to the net's free
// list for reuse by AcquireFlow. The caller must hold the only remaining
// reference: every Wait has returned and nothing will query the flow again.
// Releasing an active flow panics.
func (n *Net) ReleaseFlow(f *Flow) {
	if f.active {
		panic("flow: ReleaseFlow on an active flow")
	}
	*f = Flow{}
	n.free = append(n.free, f)
}

// Transfer runs a blocking transfer of size bytes across links and returns
// when it completes. The flow object is pooled: the blocking shape guarantees
// no reference outlives the call.
func (n *Net) Transfer(p *sim.Proc, links []*Link, size float64, tag Tag) {
	f := n.AcquireFlow()
	f.Links, f.Size, f.Tag = links, size, tag
	n.Start(f)
	f.Wait(p)
	n.ReleaseFlow(f)
}

// TransferCapped is Transfer with a per-flow rate cap.
func (n *Net) TransferCapped(p *sim.Proc, links []*Link, size float64, maxRate float64, tag Tag) {
	f := n.AcquireFlow()
	f.Links, f.Size, f.MaxRate, f.Tag = links, size, maxRate, tag
	n.Start(f)
	f.Wait(p)
	n.ReleaseFlow(f)
}
