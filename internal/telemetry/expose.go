package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus renders every series in the Prometheus text format
// (version 0.0.4): families sorted by name with one # TYPE line each,
// histograms expanded into cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.runHooks()

	r.mu.RLock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	r.mu.RUnlock()

	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return seriesID(all[i].name, all[i].labels) < seriesID(all[j].name, all[j].labels)
	})

	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, s := range all {
		if s.name != lastFamily {
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.name, s.kind)
			lastFamily = s.name
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s %d\n", seriesID(s.name, s.labels), s.counter.Value())
		case kindGauge:
			fmt.Fprintf(bw, "%s %s\n", seriesID(s.name, s.labels), formatFloat(s.gauge.Value()))
		case kindHistogram:
			writeHistogram(bw, s)
		}
	}
	return bw.Flush()
}

func writeHistogram(w io.Writer, s *series) {
	snap := s.hist.Snapshot()
	cum := int64(0)
	for i, c := range snap.Counts {
		cum += c
		le := "+Inf"
		if i < len(snap.Bounds) {
			le = formatFloat(snap.Bounds[i])
		}
		labels := append(append([]Label{}, s.labels...), L("le", le))
		fmt.Fprintf(w, "%s %d\n", seriesID(s.name+"_bucket", labels), cum)
	}
	fmt.Fprintf(w, "%s %s\n", seriesID(s.name+"_sum", s.labels), formatFloat(snap.Sum))
	fmt.Fprintf(w, "%s %d\n", seriesID(s.name+"_count", s.labels), snap.Count)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Params are the query parameters the /debug/* endpoints share, parsed
// once by HandleJSON so every path reads them by the same rules.
type Params struct {
	// Limit caps how many entries a listing returns (?limit=N; 0, the
	// default, is no cap).
	Limit int
	// Series keeps only series ids with one of these prefixes
	// (?series=a,b; empty keeps all).
	Series []string
	// Window bounds returned history to the trailing duration
	// (?window=30s; 0 is everything retained).
	Window time.Duration
}

// ParseParams reads the shared parameters from q. A negative or
// unparsable value is an error, never a silent default.
func ParseParams(q url.Values) (Params, error) {
	var p Params
	var err error
	if s := q.Get("limit"); s != "" {
		if p.Limit, err = strconv.Atoi(s); err != nil || p.Limit < 0 {
			return p, fmt.Errorf("bad limit %q", s)
		}
	}
	for _, f := range strings.Split(q.Get("series"), ",") {
		if f = strings.TrimSpace(f); f != "" {
			p.Series = append(p.Series, f)
		}
	}
	if s := q.Get("window"); s != "" {
		if p.Window, err = time.ParseDuration(s); err != nil || p.Window < 0 {
			return p, fmt.Errorf("bad window %q", s)
		}
	}
	return p, nil
}

// MatchSeries reports whether a series id passes a ?series= filter: any
// entry that is a prefix of the id matches, so "rpcmr_task" selects the
// whole family and a full rendered id selects one series.
func (p Params) MatchSeries(id string) bool {
	for _, f := range p.Series {
		if strings.HasPrefix(id, f) {
			return true
		}
	}
	return len(p.Series) == 0
}

// HandleJSON registers the one handler every /debug/* endpoint is: GET
// and HEAD only, the shared parameters parsed up front (a bad one is a
// 400 on every path), then source's document written as indented JSON.
// A non-nil err is answered
// with status and err's text; the convention is 404 for a source that is
// switched off or has nothing to show yet.
func HandleJSON(mux *http.ServeMux, path string, source func(Params) (doc any, status int, err error)) {
	mux.HandleFunc(path, func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		p, err := ParseParams(req.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		doc, status, err := source(p)
		if err != nil {
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
}

// FlightRecorderPath is where MountFlightRecorder serves the report.
const FlightRecorderPath = "/debug/flightrecorder"

// MountFlightRecorder serves the job's current flight record. source is
// called per request and may return nil (no job recorded yet → 404), so
// binaries can swap recorders between jobs without re-mounting.
func MountFlightRecorder(mux *http.ServeMux, source func() *Recorder) {
	HandleJSON(mux, FlightRecorderPath, func(Params) (any, int, error) {
		rec := source()
		if rec == nil {
			return nil, http.StatusNotFound, errors.New("no flight record")
		}
		return rec.Report(), 0, nil
	})
}

// HealthPath is where MountHealth serves the health summary.
const HealthPath = "/debug/health"

// MountHealth serves source() at /debug/health. The source is called
// per request (so the summary is always current). A nil source is a 404;
// a source that returns nil is a 503 — a server that cannot assemble its
// health picture is not healthy.
func MountHealth(mux *http.ServeMux, source func() any) {
	HandleJSON(mux, HealthPath, func(Params) (any, int, error) {
		if source == nil {
			return nil, http.StatusNotFound, errors.New("no health source")
		}
		if h := source(); h != nil {
			return h, 0, nil
		}
		return nil, http.StatusServiceUnavailable, errors.New("health unavailable")
	})
}

// MountPprof registers the net/http/pprof handlers under /debug/pprof/
// on mux — the one call a binary needs for live profiling.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ParsePrometheus is a minimal parser for the text format this package
// writes — enough for tests and for scraping our own endpoints. It
// returns sample name (labels included, exactly as rendered) → value,
// skipping comment lines.
func ParsePrometheus(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("telemetry: line %d: no value in %q", ln+1, line)
		}
		name, valText := line[:sp], line[sp+1:]
		var v float64
		switch valText {
		case "+Inf":
			v = math.Inf(1)
		case "-Inf":
			v = math.Inf(-1)
		default:
			var err error
			v, err = strconv.ParseFloat(valText, 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: line %d: bad value %q: %v", ln+1, valText, err)
			}
		}
		out[name] = v
	}
	return out, nil
}
