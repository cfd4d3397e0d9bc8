// Command bench is the repository's benchmark: six named workloads, eight
// end-to-end metrics measured with tracing off, and a separate traced run
// that gives the per-layer numbers. See README.md.
//
//	bash bench/run.sh                      # whole suite, every metric by name
//	bash bench/run.sh -workload ind_d6     # one workload, end-to-end metrics
//	bash bench/run.sh -workload ind_d6 -trace 1
//	bash bench/run.sh -repeat 2            # repeatability self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run in this process; empty runs the whole suite, one process per workload")
		seed    = flag.Int64("seed", 2012, "input seed")
		secs    = flag.Float64("seconds", runSeconds, "measuring time of one run")
		trace   = flag.Int("trace", 0, "1: traced run (per-layer metrics, writes out/trace-<workload>.json); 0: timed run (end-to-end metrics)")
		quick   = flag.Bool("quick", false, "smoke-test sizes (n / 50); numbers are not comparable")
		repeat  = flag.Int("repeat", 1, "suite mode: run the suite this many times and check the end-to-end medians agree within their bounds")
		outFlag = flag.String("out", "", "directory for result and trace files (default bench/out)")
		cat     = flag.Bool("catalogue", false, "print BENCHMARK.json from the harness's own catalogue and exit")
	)
	flag.Parse()
	if *cat {
		b, err := json.MarshalIndent(catalogueJSON(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	}
	out := *outFlag
	if out == "" {
		out = defaultOutDir()
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}
	if *name == "" {
		os.Exit(runSuite(*seed, *secs, *quick, *repeat, out))
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	cfg := runConfig{w: *w, seed: *seed, seconds: *secs, quick: *quick, outDir: out}
	if *quick {
		cfg.w = w.quick()
	}
	rep, err := runOne(cfg, *trace == 1)
	if err != nil {
		fatal(err)
	}
	printReport(rep)
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// defaultOutDir is bench/out: beside the sources when run from the
// repository root, else under the working directory.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// runOne runs one workload in this process and writes its result file.
func runOne(cfg runConfig, traced bool) (*report, error) {
	run, kind := runTimed, "timed"
	if traced {
		run, kind = runTraced, "traced"
	}
	rep, err := run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.w.Name, err)
	}
	if err := rep.check(); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.w.Name, err)
	}
	if err := writeJSON(filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-%s.json", cfg.w.Name, kind)), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric by name with its unit, the samples behind
// each median, and last the one-line JSON result.
func printReport(rep *report) {
	cat := endToEnd
	if rep.Traced {
		cat = perLayer
	}
	p := rep.Provenance
	fmt.Printf("workload %s seed %d traced %v quick %v | %s GOMAXPROCS %d nproc %d | %s | commit %s\n",
		rep.Workload, p.Seed, rep.Traced, rep.Quick, p.GoVersion, p.GOMAXPROCS, p.NProc, p.CPUModel, p.GitCommit)
	if p.Noisy {
		fmt.Printf("NOISY: nproc %d, machine %.0f%% busy at start — numbers from this run are not steady\n", p.NProc, 100*p.BusyAtStart)
	}
	line := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, m := range cat {
		v := rep.Metrics[m.Name]
		line.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Printf("%-40s %16.6g %-8s", m.Name, v, m.Unit)
		if xs := rep.Samples[m.Name]; len(xs) > 1 {
			fmt.Printf("  n=%d q1=%.6g q3=%.6g", len(xs), quantile(xs, 0.25), quantile(xs, 0.75))
		}
		fmt.Println()
	}
	extra := make([]string, 0, len(rep.Extra))
	for name := range rep.Extra {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		xs := rep.Samples[name]
		fmt.Printf("%-40s %16.6g (measured, not gated)  n=%d q1=%.6g q3=%.6g\n", name, rep.Extra[name], len(xs), quantile(xs, 0.25), quantile(xs, 0.75))
	}
	fmt.Printf("operations attempted %d failed %d\n", rep.Attempted, rep.Failed)
	sort.Strings(rep.Failures)
	for _, f := range rep.Failures {
		fmt.Println("FAILED:", f)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
