package main

import (
	"strings"
	"testing"

	"repro/internal/telemetry/critpath"
)

// TestCritPathShowsMilliseconds: a job of a few milliseconds renders its
// times in ms, none of them zero.
func TestCritPathShowsMilliseconds(t *testing.T) {
	a := &critpath.Analysis{
		MakespanSeconds: 0.004,
		Phases: []critpath.PhaseBlame{
			{Phase: "map", Seconds: 0.003, Share: 0.75},
			{Phase: "reduce", Seconds: 0.001, Share: 0.25},
		},
		Workers: []critpath.WorkerBlame{{Worker: "w1", Seconds: 0.00084, Share: 0.21}},
		WhatIf:  []critpath.Scenario{{Name: "no-straggler", PredictedSeconds: 0.0035, SpeedupX: 1.14}},
	}
	var b strings.Builder
	renderCritPath(&b, a)
	out := b.String()
	if strings.Contains(out, "0.00s") || strings.Contains(out, "0.00ms") {
		t.Errorf("a zero time in:\n%s", out)
	}
	for _, want := range []string{"makespan 4.00ms", "map 3.00ms (75%)", "reduce 1.00ms (25%)", "w1 0.84ms (21%)", "no-straggler    3.50ms (1.14x)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	b.Reset()
	renderCritPath(&b, &critpath.Analysis{MakespanSeconds: 2.5})
	if !strings.Contains(b.String(), "makespan 2.50s") {
		t.Errorf("a 2.5 s job renders as:\n%s", b.String())
	}
}
