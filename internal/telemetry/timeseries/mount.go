package timeseries

import (
	"errors"
	"net/http"

	"repro/internal/telemetry"
)

// Path is where Mount serves the rings.
const Path = "/debug/timeseries"

// Doc is the /debug/timeseries JSON document.
type Doc struct {
	IntervalSeconds float64            `json:"interval_seconds"`
	Retention       int                `json:"retention"`
	Samples         int                `json:"samples"`
	Series          map[string][]Point `json:"series"`
}

// Doc assembles the exposition document from the request's ?series=
// filter and ?window= bound.
func (s *Sampler) Doc(p telemetry.Params) Doc {
	doc := Doc{Series: map[string][]Point{}}
	if s == nil {
		return doc
	}
	doc.IntervalSeconds = s.cfg.Interval.Seconds()
	doc.Retention = s.cfg.Retention
	doc.Samples = s.Samples()
	for _, id := range s.SeriesNames() {
		if !p.MatchSeries(id) {
			continue
		}
		if pts := s.Window(id, p.Window); len(pts) > 0 {
			doc.Series[id] = pts
		}
	}
	return doc
}

// Mount serves the sampler's rings at /debug/timeseries. ?series=a,b
// filters to those ids or prefixes, ?window=30s bounds the returned
// history. A nil sampler is a 404.
func Mount(mux *http.ServeMux, s *Sampler) {
	telemetry.HandleJSON(mux, Path, func(p telemetry.Params) (any, int, error) {
		if s == nil {
			return nil, http.StatusNotFound, errors.New("time-series sampling off")
		}
		return s.Doc(p), 0, nil
	})
}
