package skymr

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCLIToolsEndToEnd drives the single-machine CLI tools as real
// processes: generate a dataset with qwsgen, describe it, compute its
// skyline with skyline (MapReduce and sequential paths), and run a quick
// skybench figure. Skipped with -short.
func TestCLIToolsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	goRun := func(args ...string) string {
		t.Helper()
		cmd := exec.CommandContext(ctx, "go", append([]string{"run"}, args...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go run %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	csv := filepath.Join(dir, "qws.csv")
	goRun("./cmd/qwsgen", "-n", "800", "-d", "4", "-seed", "5", "-o", csv)
	if info, err := os.Stat(csv); err != nil || info.Size() == 0 {
		t.Fatalf("qwsgen produced nothing: %v", err)
	}

	describe := goRun("./cmd/qwsgen", "-n", "500", "-d", "3", "-describe")
	if !strings.Contains(describe, "ResponseTime") || !strings.Contains(describe, "pairwise correlation") {
		t.Errorf("describe output missing sections:\n%s", describe)
	}

	mrOut := goRun("./cmd/skyline", "-method", "angle", "-header", csv)
	seqOut := goRun("./cmd/skyline", "-method", "seq", "-header", csv)
	mrLines := strings.Count(strings.TrimSpace(mrOut), "\n") + 1
	seqLines := strings.Count(strings.TrimSpace(seqOut), "\n") + 1
	if mrLines != seqLines {
		t.Errorf("MapReduce skyline has %d rows, sequential %d", mrLines, seqLines)
	}
	if mrLines < 3 {
		t.Errorf("implausibly small skyline: %d rows", mrLines)
	}

	// A reducer budget small enough to force spill passes must not change
	// the skyline (row order may differ — compare as sets).
	budOut := goRun("./cmd/skyline", "-method", "angle", "-header", "-reducer-budget", "4096", csv)
	asSet := func(out string) map[string]bool {
		set := make(map[string]bool)
		for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
			set[line] = true
		}
		return set
	}
	mrSet, budSet := asSet(mrOut), asSet(budOut)
	if len(mrSet) != len(budSet) {
		t.Errorf("budgeted skyline has %d distinct rows, unbudgeted %d", len(budSet), len(mrSet))
	}
	for row := range mrSet {
		if !budSet[row] {
			t.Errorf("budgeted skyline missing row %s", row)
		}
	}

	// A budget the library refuses is refused by the binary, not dropped:
	// the k-skyband does not run under one, and -method seq has no reducers.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-k", "3", "-reducer-budget", "4096"}, "k-skyband does not run under a reducer budget"},
		{[]string{"-method", "seq", "-reducer-budget", "4096"}, "-method seq has none"},
	} {
		args := append(append([]string{"run", "./cmd/skyline", "-header"}, tc.args...), csv)
		out, err := exec.CommandContext(ctx, "go", args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("skyline %v: err %v, output %q; want a failure saying %q", tc.args, err, out, tc.want)
		}
	}

	repOut := goRun("./cmd/skyline", "-method", "angle", "-header", "-rep", "3", csv)
	if got := strings.Count(strings.TrimSpace(repOut), "\n") + 1; got != 4 { // header + 3 rows
		t.Errorf("representative output has %d lines, want 4", got)
	}

	bench := goRun("./cmd/skybench", "-figure", "thm")
	if !strings.Contains(bench, "D_angle") || !strings.Contains(bench, "completed in") {
		t.Errorf("skybench thm output unexpected:\n%s", bench)
	}
}
