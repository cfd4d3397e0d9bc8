package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runChild runs one workload in its own process, so that peak_rss_mb is the
// workload's alone, passes its output through, and returns its result line.
func runChild(w string, seed int64, secs float64, traced, quick bool, out string) (*resultLine, error) {
	args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-out", out}
	if traced {
		args = append(args, "-trace", "1")
	}
	if quick {
		args = append(args, "-quick")
	}
	var buf bytes.Buffer
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // Run waits for the child to end
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %w", w, runErr, err)
	}
	return &line, nil
}

// runSuite runs every workload timed and traced, `repeat` times over, and
// returns the process exit code: nonzero when an operation failed or, with
// repeat > 1, when two sets of runs of the same code disagree by more than a
// metric's bound.
func runSuite(seed int64, secs float64, quick bool, repeat int, out string) int {
	exit := 0
	sets := make([]map[string]*resultLine, repeat)
	for s := range sets {
		sets[s] = map[string]*resultLine{}
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				if traced && s > 0 {
					continue // the self-check compares end-to-end metrics only
				}
				line, err := runChild(w.Name, seed, secs, traced, quick, out)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					exit = 1
					continue
				}
				if !line.Correct {
					exit = 1
				}
				if !traced {
					sets[s][w.Name] = line
				}
			}
		}
	}
	fmt.Printf("\nsuite: %d workloads, result and trace files in %s\n", len(workloads), filepath.Clean(out))
	if repeat > 1 && !compareSets(sets[0], sets[repeat-1]) {
		exit = 1
	}
	return exit
}

// compareSets prints, per workload and end-to-end metric, both values, how
// much worse the second is than the first, and the bound; it reports whether
// every difference stays within its bound.
func compareSets(a, b map[string]*resultLine) bool {
	ok := true
	fmt.Printf("\nrepeatability: second set against first, same code\n%-16s %-26s %14s %14s %9s %6s\n",
		"workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		la, lb := a[w.Name], b[w.Name]
		if la == nil || lb == nil {
			fmt.Printf("%-16s missing a run\n", w.Name)
			ok = false
			continue
		}
		for _, m := range endToEnd {
			va, vb := la.Metrics[m.Name].Value, lb.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			flag := ""
			if worse > m.Bound {
				flag, ok = "  EXCEEDS BOUND", false
			}
			fmt.Printf("%-16s %-26s %14.6g %14.6g %8.1f%% %5.0f%%%s\n", w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, flag)
		}
	}
	return ok
}
