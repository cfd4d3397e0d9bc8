package critpath

import (
	"errors"
	"net/http"

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
