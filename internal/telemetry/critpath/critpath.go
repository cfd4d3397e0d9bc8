// Package critpath turns a stitched span trace (telemetry.Tracer with
// worker spans grafted in by Import) into an answer to the question the
// raw trace only hints at: where did the makespan go, and what would a
// different plan have bought?
//
// The analyzer walks the span tree backwards from the root's end — at
// every instant the *last finisher* among the overlapping children is
// the span the clock was waiting on — and partitions the whole makespan
// into critical segments, each blamed on one span (or on the gap
// between a span and its children: coordination). Segments roll up into
// per-phase, per-worker and per-partition blame, near-critical spans
// get a slack figure (how much longer they could have run for free),
// and a small scheduling model predicts the makespan under Eq. (5)-
// perfect partition balance, under ±k workers, and with the flagged
// stragglers brought back to the pack — the analysis step the paper's
// tuning loop (and ROADMAP item 1) needs as input. The flight
// recorder's skew rollups ride along as a cross-check: partition-load
// imbalance and critical-path worker imbalance should tell one story.
package critpath

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// Phase labels. Every critical segment lands in exactly one, so the
// per-phase blame sums to the makespan by construction.
const (
	PhaseMap        = "map"
	PhaseShuffle    = "shuffle"
	PhaseReduce     = "reduce"
	PhaseCoordinate = "coordinate"
)

// Segment is one slice of the critical path: from Start (seconds after
// the root span began) the job spent Seconds waiting on Span. Gap marks
// coordination time — the blamed span was running but none of its
// children were, so the time went to dispatch, barriers, or the span's
// own serial work.
type Segment struct {
	Span    string  `json:"span"`
	Phase   string  `json:"phase"`
	Job     string  `json:"job,omitempty"`
	Worker  string  `json:"worker,omitempty"`
	Task    int     `json:"task,omitempty"`
	Start   float64 `json:"start_seconds"`
	Seconds float64 `json:"seconds"`
	Gap     bool    `json:"gap,omitempty"`
}

// PhaseBlame is one phase's share of the critical path.
type PhaseBlame struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// WorkerBlame is one worker's share of the critical path (only task
// time attributes to workers; coordination and phase gaps do not).
type WorkerBlame struct {
	Worker    string  `json:"worker"`
	Seconds   float64 `json:"seconds"`
	Share     float64 `json:"share"`
	Straggler bool    `json:"straggler,omitempty"`
}

// PartitionBlame apportions the reduce phase's critical seconds over
// data partitions proportionally to their recorded load — the bridge
// from "the reduce phase was slow" to "these angular sectors made it
// slow", which is what a re-partitioning decision needs.
type PartitionBlame struct {
	Partition int     `json:"partition"`
	Load      int64   `json:"load"`
	Seconds   float64 `json:"seconds"`
	Share     float64 `json:"share"`
}

// SlackEntry is a near-critical span: it could have run SlackSeconds
// longer without moving the makespan. Small slack marks the next
// bottleneck once the current one is fixed.
type SlackEntry struct {
	Span         string  `json:"span"`
	Worker       string  `json:"worker,omitempty"`
	Task         int     `json:"task,omitempty"`
	SlackSeconds float64 `json:"slack_seconds"`
}

// Scenario is one what-if prediction from the scheduling model.
type Scenario struct {
	Name             string  `json:"name"`
	PredictedSeconds float64 `json:"predicted_seconds"`
	SpeedupX         float64 `json:"speedup_x"`
	Detail           string  `json:"detail,omitempty"`
}

// SkewCheck cross-references the flight recorder's partition-load skew
// against the trace's per-worker busy-time skew. The two are computed
// from independent evidence (shuffle accounting vs task spans); when
// both are high the load imbalance is real and balance would pay, when
// they disagree the bottleneck is elsewhere (straggling hardware, few
// tasks, coordination).
type SkewCheck struct {
	FlightImbalance     float64 `json:"flight_imbalance,omitempty"`
	FlightGini          float64 `json:"flight_gini,omitempty"`
	WorkerBusyImbalance float64 `json:"worker_busy_imbalance,omitempty"`
	Consistent          bool    `json:"consistent"`
	Note                string  `json:"note,omitempty"`
}

// Analysis is the full critical-path report served at /debug/critpath.
type Analysis struct {
	Job             string           `json:"job"`
	Start           time.Time        `json:"start"`
	MakespanSeconds float64          `json:"makespan_seconds"`
	CriticalPath    []Segment        `json:"critical_path"`
	Phases          []PhaseBlame     `json:"phases"`
	Workers         []WorkerBlame    `json:"workers,omitempty"`
	Partitions      []PartitionBlame `json:"partitions,omitempty"`
	Slack           []SlackEntry     `json:"slack,omitempty"`
	WhatIf          []Scenario       `json:"whatif,omitempty"`
	SkewCheck       *SkewCheck       `json:"skew_check,omitempty"`
}

// topSlack bounds the slack list.
const topSlack = 8

// eps is the containment / walk tolerance in seconds — just enough to
// absorb float noise and the sub-RPC jitter of receipt-anchored
// timestamps without swallowing real micro-phases (in-process runs
// finish in milliseconds).
const eps = 1e-6

type node struct {
	id         uint64
	name       string
	track      int
	start, end float64
	attrs      []telemetry.Attr
	kids       []*node

	phase  string // cached nearest ancestor-or-self phase
	job    string // cached nearest ancestor-or-self job name
	worker string // cached worker attribution
}

// Analyze computes the critical-path report for one trace. rep (the
// flight record) is optional: without it partition blame and the flight
// side of the skew check are omitted. It returns an error only when the
// trace has no usable root span.
func Analyze(spans []telemetry.SpanData, rep *telemetry.Report) (*Analysis, error) {
	root, epoch, err := buildTree(spans)
	if err != nil {
		return nil, err
	}

	a := &analyzer{slack: make(map[*node]float64)}
	annotate(root, "", "")
	a.walk(root, root.start, root.end)
	sort.Slice(a.segs, func(i, j int) bool { return a.segs[i].start < a.segs[j].start })

	out := &Analysis{
		Job:             root.name,
		Start:           epoch.Add(time.Duration(root.start * float64(time.Second))),
		MakespanSeconds: root.end - root.start,
	}
	for _, s := range a.segs {
		out.CriticalPath = append(out.CriticalPath, Segment{
			Span:    s.on.name,
			Phase:   phaseOr(s.on.phase, PhaseCoordinate),
			Job:     s.on.job,
			Worker:  s.on.worker,
			Task:    attrInt(s.on.attrs, "task"),
			Start:   s.start - root.start,
			Seconds: s.end - s.start,
			Gap:     s.gap,
		})
	}

	out.Phases = phaseBlame(out.CriticalPath, out.MakespanSeconds)
	out.Workers = workerBlame(out.CriticalPath, out.MakespanSeconds, a.segs)
	out.Partitions = partitionBlame(out.Phases, rep)
	out.Slack = slackList(a.slack, topSlack)
	tasks := collectTasks(root)
	out.WhatIf = whatIf(out, tasks)
	out.SkewCheck = skewCheck(rep, tasks, out.WhatIf)
	return out, nil
}

// buildTree indexes the spans, picks the root (the longest span without
// a parent in the set), and adopts task spans under the phase span that
// temporally contains them: the rpcmr master records the map/shuffle/
// reduce phase spans post hoc as *siblings* of the imported task spans,
// and the walk needs them nested to blame both the phase and the
// worker.
func buildTree(spans []telemetry.SpanData) (*node, time.Time, error) {
	if len(spans) == 0 {
		return nil, time.Time{}, fmt.Errorf("critpath: empty trace")
	}
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	byID := make(map[uint64]*node, len(spans))
	nodes := make([]*node, 0, len(spans))
	for _, s := range spans {
		start := s.Start.Sub(epoch).Seconds()
		n := &node{
			id:    s.ID,
			name:  s.Name,
			track: s.Track,
			start: start,
			end:   start + s.Duration.Seconds(),
			attrs: s.Attrs,
		}
		byID[s.ID] = n
		nodes = append(nodes, n)
	}
	var root *node
	for i, s := range spans {
		n := nodes[i]
		if p, ok := byID[s.Parent]; ok && s.Parent != s.ID {
			p.kids = append(p.kids, n)
		} else if root == nil || n.end-n.start > root.end-root.start {
			root = n
		}
	}
	if root == nil || root.end <= root.start {
		return nil, time.Time{}, fmt.Errorf("critpath: no root span with positive duration")
	}
	adoptUnderPhases(root)
	return root, epoch, nil
}

// adoptUnderPhases re-parents, at every level, non-phase children under
// the narrowest phase sibling ("map"/"shuffle"/"reduce") that
// temporally contains them.
func adoptUnderPhases(n *node) {
	var phases []*node
	for _, k := range n.kids {
		if k.name == PhaseMap || k.name == PhaseShuffle || k.name == PhaseReduce {
			phases = append(phases, k)
		}
	}
	if len(phases) > 0 {
		kept := n.kids[:0]
		for _, k := range n.kids {
			var host *node
			if k.name != PhaseMap && k.name != PhaseShuffle && k.name != PhaseReduce {
				for _, f := range phases {
					if k.start >= f.start-eps && k.end <= f.end+eps {
						if host == nil || f.end-f.start < host.end-host.start {
							host = f
						}
					}
				}
			}
			if host != nil {
				host.kids = append(host.kids, k)
			} else {
				kept = append(kept, k)
			}
		}
		n.kids = kept
	}
	for _, k := range n.kids {
		adoptUnderPhases(k)
	}
}

// classify maps a span name to its phase ("" when the name implies
// none).
func classify(name string) string {
	switch name {
	case PhaseMap, "map-task":
		return PhaseMap
	case PhaseReduce, "reduce-task":
		return PhaseReduce
	case PhaseShuffle:
		return PhaseShuffle
	}
	return ""
}

// annotate caches phase/job/worker attribution down the tree.
func annotate(n *node, phase, job string) {
	if p := classify(n.name); p != "" {
		phase = p
	}
	for _, prefix := range []string{"rpcmr-job:", "mr-job:"} {
		if strings.HasPrefix(n.name, prefix) {
			job = strings.TrimPrefix(n.name, prefix)
		}
	}
	n.phase, n.job = phase, job
	if w := attrString(n.attrs, "worker"); w != "" {
		n.worker = w
	} else if strings.HasSuffix(n.name, "-task") && n.track > 0 {
		// In-process engines pin task spans to per-slot tracks but
		// carry no worker identity; name the slot so blame still lands
		// somewhere actionable.
		n.worker = fmt.Sprintf("slot %d", n.track)
	}
	for _, k := range n.kids {
		annotate(k, phase, job)
	}
}

type segment struct {
	on         *node
	start, end float64
	gap        bool
}

type analyzer struct {
	segs  []segment
	slack map[*node]float64
}

// walk attributes the window (lo, hi] inside span n. Backwards from hi:
// the child with the latest (clamped) end is what the clock was waiting
// on; any daylight between that child's end and the cursor is n's own
// coordination time; then the walk descends into the child and resumes
// from the child's start. Every emitted segment is disjoint and the
// union is exactly (lo, hi], so blame sums to the makespan.
func (a *analyzer) walk(n *node, lo, hi float64) {
	t := hi
	for t-lo > eps {
		var best *node
		bestEnd := math.Inf(-1)
		for _, c := range n.kids {
			if c.start >= t-eps {
				continue // starts at/after the cursor: not what we waited on
			}
			e := math.Min(c.end, t)
			if e <= lo+eps {
				continue // no overlap with the remaining window
			}
			if e > bestEnd {
				bestEnd, best = e, c
			}
		}
		if best == nil {
			a.emit(n, lo, t, len(n.kids) > 0)
			return
		}
		// Non-chosen candidates could have run until bestEnd for free.
		for _, c := range n.kids {
			if c == best || c.start >= t-eps {
				continue
			}
			if e := math.Min(c.end, t); e > lo+eps && bestEnd-e > 0 {
				if cur, ok := a.slack[c]; !ok || bestEnd-e < cur {
					a.slack[c] = bestEnd - e
				}
			}
		}
		if t-bestEnd > eps {
			a.emit(n, bestEnd, t, true)
		}
		clo := math.Max(best.start, lo)
		a.walk(best, clo, bestEnd)
		delete(a.slack, best) // critical (for this window): no slack
		t = clo
	}
}

func (a *analyzer) emit(n *node, lo, hi float64, gap bool) {
	if hi-lo <= 0 {
		return
	}
	a.segs = append(a.segs, segment{on: n, start: lo, end: hi, gap: gap})
}

func phaseOr(p, fallback string) string {
	if p == "" {
		return fallback
	}
	return p
}

func phaseBlame(segs []Segment, makespan float64) []PhaseBlame {
	by := map[string]float64{}
	for _, s := range segs {
		by[s.Phase] += s.Seconds
	}
	var out []PhaseBlame
	for _, p := range []string{PhaseMap, PhaseShuffle, PhaseReduce, PhaseCoordinate} {
		if sec, ok := by[p]; ok {
			out = append(out, PhaseBlame{Phase: p, Seconds: sec, Share: share(sec, makespan)})
		}
	}
	return out
}

// Bottleneck is the phase holding the most critical-path seconds (the
// zero PhaseBlame when no phase holds any).
func (a *Analysis) Bottleneck() PhaseBlame {
	var top PhaseBlame
	for _, p := range a.Phases {
		if p.Seconds > top.Seconds {
			top = p
		}
	}
	return top
}

func workerBlame(segs []Segment, makespan float64, raw []segment) []WorkerBlame {
	secs := map[string]float64{}
	strag := map[string]bool{}
	for i, s := range segs {
		if s.Worker == "" {
			continue
		}
		secs[s.Worker] += s.Seconds
		if attrBool(raw[i].on.attrs, "straggler") {
			strag[s.Worker] = true
		}
	}
	out := make([]WorkerBlame, 0, len(secs))
	for w, sec := range secs {
		out = append(out, WorkerBlame{Worker: w, Seconds: sec, Share: share(sec, makespan), Straggler: strag[w]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seconds > out[j].Seconds })
	return out
}

// partitionBlame spreads the reduce phase's critical seconds over the
// flight record's partitions proportionally to load. Model-based, not
// measured: rpcmr reduce tasks process one partition group each, so
// load share is the best stand-in short of per-partition reduce spans.
func partitionBlame(phases []PhaseBlame, rep *telemetry.Report) []PartitionBlame {
	if rep == nil || len(rep.Partitions) == 0 {
		return nil
	}
	var reduceSec float64
	for _, p := range phases {
		if p.Phase == PhaseReduce {
			reduceSec = p.Seconds
		}
	}
	var total float64
	for _, p := range rep.Partitions {
		total += float64(p.InputRecords)
	}
	if total == 0 || reduceSec == 0 {
		return nil
	}
	out := make([]PartitionBlame, len(rep.Partitions))
	for i, p := range rep.Partitions {
		sec := reduceSec * float64(p.InputRecords) / total
		out[i] = PartitionBlame{Partition: p.Partition, Load: p.InputRecords, Seconds: sec, Share: share(sec, reduceSec)}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seconds > out[j].Seconds })
	return out
}

func slackList(slack map[*node]float64, top int) []SlackEntry {
	out := make([]SlackEntry, 0, len(slack))
	for n, s := range slack {
		out = append(out, SlackEntry{Span: n.name, Worker: n.worker, Task: attrInt(n.attrs, "task"), SlackSeconds: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SlackSeconds < out[j].SlackSeconds })
	if len(out) > top {
		out = out[:top]
	}
	return out
}

func share(v, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return v / total
}

func attrString(attrs []telemetry.Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			if s, ok := a.Value.(string); ok {
				return s
			}
		}
	}
	return ""
}

func attrInt(attrs []telemetry.Attr, key string) int {
	for _, a := range attrs {
		if a.Key == key {
			switch v := a.Value.(type) {
			case int:
				return v
			case int64:
				return int(v)
			case float64:
				return int(v)
			}
		}
	}
	return 0
}

func attrBool(attrs []telemetry.Attr, key string) bool {
	for _, a := range attrs {
		if a.Key == key {
			if b, ok := a.Value.(bool); ok {
				return b
			}
		}
	}
	return false
}
