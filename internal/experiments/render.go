package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/asciiplot"
)

// split cuts a row name into its table line and its column.
func split(name string) (line, col string) {
	i := strings.LastIndex(name, "/")
	return name[:max(i, 0)], name[i+1:]
}

// format prints four significant digits, or whole numbers from 1000 up; a
// gate past its bound is starred.
func format(r Row) string {
	s := strconv.FormatFloat(r.Value, 'g', 4, 64)
	if math.Abs(r.Value) >= 1000 {
		s = strconv.FormatFloat(r.Value, 'f', 0, 64)
	}
	if r.Failed() {
		s += "*"
	}
	return s
}

// Write prints e's rows: a table with one line per name prefix and one
// column per last segment, a header wherever the columns change, then
// every gate past its bound, and with plot e's chart (see plotRows).
func Write(w io.Writer, e Experiment, rs []Row, plot bool) error {
	fmt.Fprintf(w, "%s — %s\n", e.Name, e.Title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	var header, cols, cells []string
	flush := func() {
		if strings.Join(cols, "\t") != strings.Join(header, "\t") {
			tw.Flush() // a new header starts a new alignment block
			fmt.Fprintf(tw, "\t%s\n", strings.Join(cols, "\t"))
			header = cols
		}
		fmt.Fprintf(tw, "%s\n", strings.Join(cells, "\t"))
	}
	for i, r := range rs {
		line, col := split(r.Name)
		if i == 0 || line != cells[0] {
			if i > 0 {
				flush()
			}
			cols, cells = nil, []string{line}
		}
		cols, cells = append(cols, col), append(cells, format(r))
	}
	if len(rs) > 0 {
		flush()
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, r := range rs {
		if r.Failed() {
			op := map[string]string{"lower": "<=", "higher": ">="}[r.Better]
			fmt.Fprintf(w, "  FAIL %s = %g %s, bound %s %g\n", r.Name, r.Value, r.Unit, op, *r.Bound)
		}
	}
	if !plot {
		return nil
	}
	fmt.Fprintln(w)
	return plotRows(w, e, rs)
}

// plotRows draws e.Plot's column: rows named x/series/col as one line per
// series over x; rows named x/col as bars over x, stacked when Plot names
// several columns joined by "+".
func plotRows(w io.Writer, e Experiment, rs []Row) error {
	want := strings.Split(e.Plot, "+")
	var xs, series []string
	cell := map[[2]string]float64{}
	lines := false
	for _, r := range rs {
		x, col := split(r.Name)
		if !slices.Contains(want, col) {
			continue
		}
		s := col
		if i := strings.Index(x, "/"); i >= 0 {
			x, s, lines = x[:i], x[i+1:], true
		}
		if !slices.Contains(xs, x) {
			xs = append(xs, x)
		}
		if !slices.Contains(series, s) {
			series = append(series, s)
		}
		cell[[2]string{x, s}] = r.Value
	}
	grid := make([][]float64, len(xs)) // grid[x][series]
	for i, x := range xs {
		for _, s := range series {
			grid[i] = append(grid[i], cell[[2]string{x, s}])
		}
	}
	title := e.Title + " [" + e.Plot + "]"
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', 3, 64) }
	switch {
	case lines:
		bySeries := make([][]float64, len(series))
		for si := range series {
			bySeries[si] = column(grid, si)
		}
		return asciiplot.Lines(w, title, xs, bySeries, series, num)
	case len(want) > 1:
		return asciiplot.StackedBars(w, title, xs, grid, series, num)
	default:
		return asciiplot.Bars(w, title, xs, column(grid, 0), func(i int) string { return num(grid[i][0]) })
	}
}

func column(grid [][]float64, j int) []float64 {
	out := make([]float64, len(grid))
	for i := range grid {
		out[i] = grid[i][j]
	}
	return out
}
