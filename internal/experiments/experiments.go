// Package experiments is the one place an experiment is defined: the
// paper's evaluation (Figs. 5–7, Theorems 1–2), the design studies beyond
// it, and the repository's acceptance gates (kernels, spill, serve,
// critpath, obs), as one registry of named experiments. Every experiment
// returns the same rows — {experiment, name, value, unit, better, bound} —
// and a gate is a row with a bound: Row.Failed is the one check that
// decides pass or fail. cmd/skybench runs the registry through Main and
// writes one results file; the repository's figure benchmarks call the
// same entries.
package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/partition"
)

// Row is one measured quantity. Its name is "/"-separated: the last
// segment is the column it prints under, the rest the table line.
type Row struct {
	Experiment string  `json:"experiment"`
	Name       string  `json:"name"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	// Better is "lower" or "higher"; a gate compares Value to Bound in
	// that direction (the bound itself passes).
	Better string   `json:"better,omitempty"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Failed reports whether r is a gate past its bound. A NaN value fails.
func (r Row) Failed() bool {
	switch {
	case r.Bound == nil:
		return false
	case r.Better == "lower":
		return !(r.Value <= *r.Bound)
	default:
		return !(r.Value >= *r.Bound)
	}
}

// rows collects one experiment's rows.
type rows []Row

func (rs *rows) add(name string, v float64, unit string) {
	*rs = append(*rs, Row{Name: name, Value: v, Unit: unit})
}

// gate adds a row bounded in the better direction when on; off, it is
// reported only. Count rows pass true: they repeat exactly, so they are
// checked at every scale. Timing rows pass Scale.Gate.
func (rs *rows) gate(on bool, name string, v float64, unit, better string, bound float64) {
	r := Row{Name: name, Value: v, Unit: unit, Better: better}
	if on {
		r.Bound = &bound
	}
	*rs = append(*rs, r)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// best returns the fastest of runs calls of f — the minimum, because
// scheduling noise only ever adds time — or f's first error.
func best(runs int, f func() error) (time.Duration, error) {
	fastest := time.Duration(math.MaxInt64)
	for r := 0; r < max(runs, 1); r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		fastest = min(fastest, time.Since(start))
	}
	return fastest, nil
}

// Scale is one preset of every experiment's sizes.
type Scale struct {
	Name string
	// Gate bounds the timing rows too; count rows are bounded at every
	// scale.
	Gate bool
	// SmallN and LargeN are the cardinalities of Figs. 5 and 7 (paper:
	// 1 000 and 100 000); Dims is their dimension sweep (paper 2…10).
	SmallN, LargeN int
	Dims           []int
	// Nodes is the modelled cluster size (partitions = 2 × Nodes, the
	// paper's rule); Workers the engine's worker goroutines.
	Nodes, Workers int
	// Servers is Fig. 6's server sweep (paper 4…32).
	Servers []int
	Seed    int64
	// Runs is how many times every timed row is measured (best kept).
	Runs int
	// Samples is the Monte-Carlo draw per theorem point.
	Samples int
	// TableN and TableD size the design studies (ablation, sensitivity,
	// partitions, flight, critpath-chart) at a low and a high d.
	TableN int
	TableD [2]int
	// The gates' sizes: the kernel rows' input; the spill gate's codec
	// rows, its budgeted-throughput pair and its streamed run under
	// Budget reducer bytes; the serve, critpath and obs inputs.
	KernelN                      int
	CodecN, ThroughputN, StreamN int
	Budget                       int64
	ServeN, CritpathN, ObsN      int
	// Charts is where flight and critpath-chart draw their ASCII charts;
	// nil draws none.
	Charts io.Writer
}

// ScaleNames lists the presets, smallest first.
var ScaleNames = []string{"quick", "ci", "full"}

// ScaleFor returns the named preset. Quick is the CI smoke run and is
// report only (no timing row is bounded); ci is the gated CI jobs; full is
// the paper's scale and the EXPERIMENTS.md recipes.
func ScaleFor(name string) (Scale, error) {
	sc := Scale{
		Name:        name,
		SmallN:      500,
		LargeN:      8000,
		Dims:        []int{2, 4, 6, 8, 10},
		Nodes:       4,
		Workers:     4,
		Servers:     []int{4, 8, 16, 32},
		Seed:        2012,
		Runs:        1,
		Samples:     500000,
		TableN:      4000,
		TableD:      [2]int{4, 6},
		KernelN:     20000,
		CodecN:      20000,
		ThroughputN: 40000,
		StreamN:     100000,
		Budget:      16 << 20,
		ServeN:      2000,
		CritpathN:   6000,
		ObsN:        20000,
	}
	switch name {
	case "quick":
	case "ci":
		sc.Gate, sc.Runs = true, 2
		sc.KernelN, sc.StreamN, sc.ServeN, sc.CritpathN, sc.ObsN = 100000, 1000000, 20000, 12000, 100000
	case "full":
		sc.Gate, sc.Runs = true, 3
		sc.SmallN, sc.LargeN = 1000, 100000
		sc.Servers = []int{4, 8, 12, 16, 20, 24, 28, 32}
		sc.TableN, sc.TableD = 20000, [2]int{6, 8}
		sc.KernelN, sc.CodecN, sc.ThroughputN = 100000, 100000, 200000
		sc.StreamN, sc.Budget = 100000000, 1<<30
		sc.ServeN, sc.CritpathN, sc.ObsN = 100000, 12000, 100000
	default:
		return Scale{}, fmt.Errorf("unknown scale %q (want %s)", name, strings.Join(ScaleNames, ", "))
	}
	return sc, nil
}

// options is a product run of scheme at this scale.
func (sc Scale) options(scheme partition.Scheme) driver.Options {
	return driver.Options{Scheme: scheme, Nodes: sc.Nodes, Workers: sc.Workers}
}

// Experiment is one named entry of the registry.
type Experiment struct {
	Name, Title string
	// Plot names the column -plot draws (see Write).
	Plot string
	Run  func(ctx context.Context, sc Scale) ([]Row, error)
}

// Registry lists every experiment, in the order "all" runs them.
var Registry = []Experiment{
	{"5a", "Figure 5(a): processing time vs dimension, small N", "time", figure(smallN, false)},
	{"5b", "Figure 5(b): processing time vs dimension, large N", "time", figure(largeN, false)},
	{"6", "Figure 6: MR-Angle Map/Reduce breakdown vs servers, large N, top d (simulated cluster)", "map+reduce", figure6},
	{"7a", "Figure 7(a): local skyline optimality vs dimension, small N", "opt", figure(smallN, true)},
	{"7b", "Figure 7(b): local skyline optimality vs dimension, large N", "opt", figure(largeN, true)},
	{"thm", "Theorems 1 & 2: dominance ability, analytic vs Monte-Carlo (L=1, y=x/4)", "gap", theorems},
	{"ablation", "Ablations (high d): combiner, pruning, kernels, random baseline", "time", ablation},
	{"sensitivity", "Distribution sensitivity (low d): methods across benchmark data shapes", "opt", sensitivity},
	{"partitions", "Partition-count study (high d): the paper's 2x rule in context", "localsky", partitionCount},
	{"flight", "Flight recorder (low d): per-partition load and local optimality", "opt", flight},
	{"critpath-chart", "Critical path (low d): makespan attribution per method", "makespan_s", critpathChart},
	{"kernels", "Kernels: flat vs classic local skyline and merge", "speedup", kernels},
	{"spill", "Spill: codec bytes, budgeted throughput, streamed run under a reducer budget", "v2_ratio", spill},
	{"serve", "Serve: HTTP reads, snapshot reads, publishes, cache", "ns_per_op", serve},
	{"critpath", "Critpath: the no-straggler prediction against straggler-free re-runs", "makespan_s", critpathGate},
	{"obs", "Obs: the pipeline beside a 10ms debug-plane clock", "wall_s", obs},
}

// Names lists the registry's names, then "all".
func Names() []string {
	names := make([]string, 0, len(Registry)+1)
	for _, e := range Registry {
		names = append(names, e.Name)
	}
	return append(names, "all")
}

// Lookup returns the named experiment, or the whole registry for "all".
func Lookup(name string) ([]Experiment, error) {
	if name == "all" {
		return Registry, nil
	}
	for _, e := range Registry {
		if e.Name == name {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// Results is what one invocation measured: the results file.
type Results struct {
	Scale string `json:"scale"`
	Seed  int64  `json:"seed"`
	Pass  bool   `json:"pass"`
	Rows  []Row  `json:"rows"`
}

// Add files exp's rows, failing the run if any is past its bound.
func (res *Results) Add(exp string, rs []Row) {
	for _, r := range rs {
		r.Experiment = exp
		res.Pass = res.Pass && !r.Failed()
		res.Rows = append(res.Rows, r)
	}
}

// Save writes the results file as JSON, one row per line.
func (res Results) Save(path string) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"scale\": %q, \"seed\": %d, \"pass\": %t, \"rows\": [", res.Scale, res.Seed, res.Pass)
	for i, r := range res.Rows {
		j, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("row %s/%s: %w", r.Experiment, r.Name, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n  ")
		b.Write(j)
	}
	b.WriteString("\n]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// Main runs exps at sc, printing each one's table (and chart, with plot)
// to w as it finishes, writes every row to the results file out when out
// is set, and returns the exit status: 0 when every gate holds, 1 when a
// row is past its bound, 2 on an error.
func Main(ctx context.Context, w io.Writer, exps []Experiment, sc Scale, plot bool, out string) int {
	fmt.Fprintf(w, "scale %s: small N=%d, large N=%d, dims %v, design studies N=%d, seed %d\n\n",
		sc.Name, sc.SmallN, sc.LargeN, sc.Dims, sc.TableN, sc.Seed)
	if plot {
		sc.Charts = w
	}
	res := Results{Scale: sc.Name, Seed: sc.Seed, Pass: true}
	for _, e := range exps {
		start := time.Now()
		rs, err := e.Run(ctx, sc)
		if err == nil {
			res.Add(e.Name, rs)
			err = Write(w, e, rs, plot)
		}
		if err != nil {
			fmt.Fprintf(w, "skybench: %s: %v\n", e.Name, err)
			return 2
		}
		fmt.Fprintf(w, "  [%s completed in %s]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if out != "" {
		if err := res.Save(out); err != nil {
			fmt.Fprintf(w, "skybench: %v\n", err)
			return 2
		}
		fmt.Fprintf(w, "rows written to %s\n", out)
	}
	if !res.Pass {
		fmt.Fprintln(w, "skybench: FAIL — a gate row is past its bound")
		return 1
	}
	return 0
}
