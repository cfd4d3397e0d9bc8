package critpath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var testEpoch = time.Unix(1700000000, 0)

func span(id, parent uint64, name string, start, dur float64, attrs ...telemetry.Attr) telemetry.SpanData {
	return telemetry.SpanData{
		ID:       id,
		Parent:   parent,
		Name:     name,
		Start:    testEpoch.Add(time.Duration(start * float64(time.Second))),
		Duration: time.Duration(dur * float64(time.Second)),
		Attrs:    attrs,
	}
}

// checkInvariants asserts the properties that must hold for *any* span
// tree: the critical path partitions the makespan (segments disjoint,
// in order, summing to the root duration), phase blame re-sums it, and
// the makespan bounds every single span and is bounded by the sum of
// all spans.
func checkInvariants(t *testing.T, spans []telemetry.SpanData) *Analysis {
	t.Helper()
	a, err := Analyze(spans, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	tol := eps*float64(len(spans)+5) + 1e-6
	var sum, maxDur, allDur float64
	for _, s := range spans {
		d := s.Duration.Seconds()
		allDur += d
		if d > maxDur {
			maxDur = d
		}
	}
	prevEnd := -tol
	for i, seg := range a.CriticalPath {
		if seg.Seconds < 0 {
			t.Fatalf("segment %d has negative duration %g", i, seg.Seconds)
		}
		if seg.Start < prevEnd-tol {
			t.Fatalf("segment %d (start %g) overlaps previous end %g", i, seg.Start, prevEnd)
		}
		if seg.Start+seg.Seconds > a.MakespanSeconds+tol {
			t.Fatalf("segment %d runs past the makespan: %g+%g > %g", i, seg.Start, seg.Seconds, a.MakespanSeconds)
		}
		prevEnd = seg.Start + seg.Seconds
		sum += seg.Seconds
	}
	if math.Abs(sum-a.MakespanSeconds) > tol {
		t.Fatalf("critical path sums to %g, want makespan %g (±%g)", sum, a.MakespanSeconds, tol)
	}
	var phaseSum float64
	for _, p := range a.Phases {
		phaseSum += p.Seconds
	}
	if math.Abs(phaseSum-a.MakespanSeconds) > tol {
		t.Fatalf("phase blame sums to %g, want makespan %g", phaseSum, a.MakespanSeconds)
	}
	if a.MakespanSeconds < maxDur-tol {
		t.Fatalf("makespan %g below the longest span %g", a.MakespanSeconds, maxDur)
	}
	if a.MakespanSeconds > allDur+tol {
		t.Fatalf("makespan %g above the sum of all spans %g", a.MakespanSeconds, allDur)
	}
	return a
}

// randomTrace grows a random span tree under one root: children nest
// inside their parent's interval, overlap freely, and draw names that
// exercise the phase classifier and the task-adoption pass.
func randomTrace(r *rand.Rand) []telemetry.SpanData {
	names := []string{"map", "shuffle", "reduce", "map-task", "reduce-task", "stage", "rpcmr-job:random"}
	var spans []telemetry.SpanData
	nextID := uint64(1)
	rootDur := 1 + r.Float64()*9
	spans = append(spans, span(nextID, 0, "skyline:random", 0, rootDur))
	var grow func(parent uint64, lo, hi float64, depth int)
	grow = func(parent uint64, lo, hi float64, depth int) {
		if depth > 3 || hi-lo < 0.05 {
			return
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			a := lo + r.Float64()*(hi-lo)
			b := a + r.Float64()*(hi-a)
			if b-a < 0.01 {
				continue
			}
			nextID++
			id := nextID
			attrs := []telemetry.Attr{telemetry.A("task", i)}
			if r.Intn(3) == 0 {
				attrs = append(attrs, telemetry.A("worker", fmt.Sprintf("w%d", r.Intn(3))))
			}
			spans = append(spans, span(id, parent, names[r.Intn(len(names))], a, b-a, attrs...))
			grow(id, a, b, depth+1)
		}
	}
	grow(1, 0, rootDur, 0)
	return spans
}

func TestAnalyzeRandomTrees(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		spans := randomTrace(r)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkInvariants(t, spans)
		})
	}
}

func FuzzAnalyze(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		spans := randomTrace(rand.New(rand.NewSource(seed)))
		checkInvariants(t, spans)
	})
}

// A serial chain of children with no daylight between them: the
// critical path is exactly the chain, gap-free, and equals the
// makespan.
func TestAnalyzeSerialChain(t *testing.T) {
	spans := []telemetry.SpanData{
		span(1, 0, "skyline:serial", 0, 3),
		span(2, 1, "stage-a", 0, 1),
		span(3, 1, "stage-b", 1, 1),
		span(4, 1, "stage-c", 2, 1),
	}
	a := checkInvariants(t, spans)
	if len(a.CriticalPath) != 3 {
		t.Fatalf("serial chain: got %d segments, want 3: %+v", len(a.CriticalPath), a.CriticalPath)
	}
	var sum float64
	for _, seg := range a.CriticalPath {
		if seg.Gap {
			t.Fatalf("serial chain produced a gap segment: %+v", seg)
		}
		sum += seg.Seconds
	}
	if math.Abs(sum-3) > 0.01 {
		t.Fatalf("serial chain critical path %g, want 3", sum)
	}
	if len(a.Phases) != 1 || a.Phases[0].Phase != PhaseCoordinate {
		t.Fatalf("unclassified chain should blame coordinate, got %+v", a.Phases)
	}
}

// The deterministic straggler scenario: an rpcmr-shaped trace (phase
// span and task spans as siblings under the job span, as the master
// records them) where worker w2's map task carries a 2s injected delay.
// The analyzer must attribute at least that delay to w2 and the
// no-straggler what-if must predict the run without it.
func TestAnalyzeStragglerAttribution(t *testing.T) {
	spans := []telemetry.SpanData{
		span(1, 0, "skyline:test", 0, 3),
		span(2, 1, "rpcmr-job:partition", 0, 2.9),
		span(3, 2, "map", 0.05, 2.7),
		span(4, 2, "map-task", 0.1, 0.5, telemetry.A("worker", "w0"), telemetry.A("task", 0)),
		span(5, 2, "map-task", 0.1, 0.6, telemetry.A("worker", "w1"), telemetry.A("task", 1)),
		span(6, 2, "map-task", 0.1, 2.6, telemetry.A("worker", "w2"), telemetry.A("task", 2),
			telemetry.A("straggler", true)),
	}
	a := checkInvariants(t, spans)

	var w2 *WorkerBlame
	for i := range a.Workers {
		if a.Workers[i].Worker == "w2" {
			w2 = &a.Workers[i]
		}
	}
	if w2 == nil {
		t.Fatalf("no blame for w2: %+v", a.Workers)
	}
	if w2.Seconds < 2.0 {
		t.Fatalf("w2 blamed for %.3fs, want at least the 2s injected delay", w2.Seconds)
	}
	if !w2.Straggler {
		t.Fatalf("w2 not flagged as straggler: %+v", w2)
	}
	if a.Workers[0].Worker != "w2" {
		t.Fatalf("top blame should be w2, got %+v", a.Workers[0])
	}

	// Phase blame: the map phase owns the task time plus its dispatch
	// gaps; everything outside the phase span is coordination.
	byPhase := map[string]float64{}
	for _, p := range a.Phases {
		byPhase[p.Phase] = p.Seconds
	}
	if byPhase[PhaseMap] < 2.6 {
		t.Fatalf("map phase blamed for %.3fs, want >= 2.6", byPhase[PhaseMap])
	}

	// What-if: pulling the straggler back to the pack median (0.6s)
	// should predict 3.0 - 2.6 + 0.6 = 1.0s.
	var noStrag *Scenario
	for i := range a.WhatIf {
		if a.WhatIf[i].Name == "no-straggler" {
			noStrag = &a.WhatIf[i]
		}
	}
	if noStrag == nil {
		t.Fatalf("no no-straggler scenario: %+v", a.WhatIf)
	}
	if math.Abs(noStrag.PredictedSeconds-1.0) > 0.05 {
		t.Fatalf("no-straggler predicted %.3fs, want ~1.0s", noStrag.PredictedSeconds)
	}
	if noStrag.SpeedupX < 2.5 {
		t.Fatalf("no-straggler speedup %.2fx, want ~3x", noStrag.SpeedupX)
	}
}

// Slack: of two parallel children the shorter one could have run until
// the longer finished.
func TestAnalyzeSlack(t *testing.T) {
	spans := []telemetry.SpanData{
		span(1, 0, "skyline:slack", 0, 2),
		span(2, 1, "long", 0, 2),
		span(3, 1, "short", 0, 1.5),
	}
	a := checkInvariants(t, spans)
	if len(a.Slack) != 1 || a.Slack[0].Span != "short" {
		t.Fatalf("want one slack entry for 'short', got %+v", a.Slack)
	}
	if math.Abs(a.Slack[0].SlackSeconds-0.5) > 0.01 {
		t.Fatalf("slack %.3fs, want 0.5", a.Slack[0].SlackSeconds)
	}
}

// Partition blame spreads reduce-phase critical seconds by load.
func TestPartitionBlame(t *testing.T) {
	spans := []telemetry.SpanData{
		span(1, 0, "skyline:part", 0, 2),
		span(2, 1, "rpcmr-job:merge", 0, 2),
		span(3, 2, "reduce", 0, 2),
		span(4, 2, "reduce-task", 0, 2, telemetry.A("worker", "w0")),
	}
	rep := &telemetry.Report{Partitions: []telemetry.PartitionRecord{
		{Partition: 0, InputRecords: 300},
		{Partition: 1, InputRecords: 100},
	}}
	a, err := Analyze(spans, rep)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(a.Partitions) != 2 {
		t.Fatalf("want 2 partition blames, got %+v", a.Partitions)
	}
	if a.Partitions[0].Partition != 0 || math.Abs(a.Partitions[0].Seconds-1.5) > 0.01 {
		t.Fatalf("partition 0 should absorb 3/4 of 2s reduce time, got %+v", a.Partitions[0])
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if _, err := Analyze(nil, nil); err == nil {
		t.Fatal("want error on empty trace")
	}
}
