package asciiplot

import (
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// FlightChart renders a flight-recorder report as the per-partition
// load/optimality bar chart the paper's Figures 7 and 8 tabulate: one bar
// per partition scaled by its load (input records), annotated with the
// local skyline size and the Eq. (5) optimality ratio, followed by the
// skew/straggler rollups.
func FlightChart(w io.Writer, rep *telemetry.Report) error {
	if rep == nil {
		return fmt.Errorf("asciiplot: nil flight report")
	}
	labels := make([]string, len(rep.Partitions))
	loads := make([]float64, len(rep.Partitions))
	for i, p := range rep.Partitions {
		labels[i] = fmt.Sprintf("p%d", p.Partition)
		loads[i] = float64(p.InputRecords)
	}
	title := fmt.Sprintf("flight %s: partition load / local optimality", rep.Job)
	err := Bars(w, title, labels, loads, func(i int) string {
		p := rep.Partitions[i]
		return fmt.Sprintf("%6d  sky %4d  opt %.3f", int64(loads[i]), p.LocalSkyline, p.Optimality)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "optimality %.4f | global skyline %d | skew max/mean %.2f gini %.3f | stragglers %d retries %d failures %d\n",
		rep.Optimality, rep.GlobalSkyline, rep.Skew.Imbalance, rep.Skew.Gini,
		rep.Stragglers, rep.TaskRetries, rep.WorkerFailures)
	return nil
}
