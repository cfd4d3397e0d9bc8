package critpath

import (
	"errors"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// Path is where Mount serves the critical-path analysis.
const Path = "/debug/critpath"

// Mount serves the analysis at Path. The source is re-evaluated per
// request (a running job re-analyzes its partial trace); a nil result is
// a 404, so dashboards probing an engine without tracing degrade cleanly.
func Mount(mux *http.ServeMux, source func() *Analysis) {
	telemetry.HandleJSON(mux, Path, func(telemetry.Params) (any, int, error) {
		if a := source(); a != nil {
			return a, 0, nil
		}
		return nil, http.StatusNotFound, errors.New("critical-path analysis not available")
	})
}

// Summarize flattens an analysis (and the flight record it was checked
// against) into the telemetry.RunSummary shape the run history stores —
// flat fields only, so the history file stays greppable and the
// telemetry package needs no knowledge of this one.
func Summarize(a *Analysis, rep *telemetry.Report, label string) telemetry.RunSummary {
	s := telemetry.RunSummary{
		Time:            time.Now(),
		Job:             a.Job,
		Label:           label,
		MakespanSeconds: a.MakespanSeconds,
		PhaseSeconds:    map[string]float64{},
	}
	for _, p := range a.Phases {
		s.PhaseSeconds[p.Phase] = p.Seconds
	}
	s.BottleneckPhase = a.Bottleneck().Phase
	if len(a.Workers) > 0 {
		s.BottleneckWorker = a.Workers[0].Worker
	}
	for _, w := range a.WhatIf {
		if w.Name == "perfect-balance" {
			s.PredictedBalancedSeconds = w.PredictedSeconds
		}
	}
	if rep != nil {
		s.Imbalance = rep.Skew.Imbalance
		s.Gini = rep.Skew.Gini
		s.Optimality = rep.Optimality
		s.Stragglers = rep.Stragglers
		s.GlobalSkyline = rep.GlobalSkyline
	}
	return s
}
