package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/qws"
	"repro/internal/skyline"
)

// tinyScale keeps experiment tests fast: every count row with a bound is
// still checked, at reduced N; no timing row is bounded.
func tinyScale() Scale {
	sc, _ := ScaleFor("quick")
	sc.Name = "test"
	sc.SmallN, sc.LargeN, sc.Dims, sc.Servers, sc.Seed = 300, 2000, []int{2, 4}, []int{4, 16}, 7
	sc.Samples, sc.TableN, sc.TableD = 50000, 1500, [2]int{3, 3}
	sc.KernelN, sc.CodecN, sc.ThroughputN, sc.StreamN, sc.Budget = 2000, 20000, 5000, 50000, 1<<20
	sc.ServeN, sc.CritpathN, sc.ObsN = 500, 1200, 2000
	return sc
}

// run runs the named experiment at sc and fails the test on an error or on
// any row past its bound.
func run(t *testing.T, name string, sc Scale) []Row {
	t.Helper()
	exps, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := exps[0].Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, r := range rs {
		if r.Failed() {
			t.Errorf("%s: %s = %g %s is past its bound %s %g", name, r.Name, r.Value, r.Unit, r.Better, *r.Bound)
		}
	}
	return rs
}

// byName indexes rows by name.
func byName(rs []Row) map[string]Row {
	m := make(map[string]Row, len(rs))
	for _, r := range rs {
		m[r.Name] = r
	}
	return m
}

// bounded lists the names of the rows that carry a bound.
func bounded(rs []Row) []string {
	var names []string
	for _, r := range rs {
		if r.Bound != nil {
			names = append(names, r.Name)
		}
	}
	return names
}

func rendered(t *testing.T, name string, rs []Row) string {
	t.Helper()
	exps, _ := Lookup(name)
	var buf bytes.Buffer
	if err := Write(&buf, exps[0], rs, true); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return buf.String()
}

func TestFigure5(t *testing.T) {
	sc := tinyScale()
	rs := run(t, "5a", sc)
	if len(rs) != len(sc.Dims)*len(Methods)*6 {
		t.Fatalf("%d rows, want %d", len(rs), len(sc.Dims)*len(Methods)*6)
	}
	for _, r := range rs {
		if strings.HasSuffix(r.Name, "/time") && r.Value <= 0 {
			t.Errorf("%s: no time recorded", r.Name)
		}
	}
	if out := rendered(t, "5a", rs); !strings.Contains(out, "MR-Angle") || !strings.Contains(out, "localsky") {
		t.Errorf("table rendering missing columns:\n%s", out)
	}
}

func TestFigure6(t *testing.T) {
	sc := tinyScale()
	rs := byName(run(t, "6", sc))
	total := func(servers string) float64 {
		m, r := rs["servers="+servers+"/map"], rs["servers="+servers+"/reduce"]
		if m.Value <= 0 || r.Value <= 0 {
			t.Errorf("servers %s: empty breakdown %+v %+v", servers, m, r)
		}
		return m.Value + r.Value
	}
	// More servers must not be substantially slower overall. At this tiny
	// scale fixed overhead dominates and over-partitioning can add a few
	// percent, so allow 10% wobble; the paper-scale decline shows at -scale full.
	if first, last := total("4"), total("16"); last > first*1.10 {
		t.Errorf("total time grew >10%% with servers: %g -> %g", first, last)
	}
}

func TestFigure7(t *testing.T) {
	for _, r := range run(t, "7a", tinyScale()) {
		if strings.HasSuffix(r.Name, "/opt") && (r.Value < 0 || r.Value > 1) {
			t.Errorf("%s: optimality %g out of [0,1]", r.Name, r.Value)
		}
	}
}

// TestFigure7AngleWins: the paper's qualitative claim — MR-Angle's local
// skyline optimality beats MR-Dim's and MR-Grid's, averaged across the 2-D
// and 4-D sweeps — holds as Fig. 7's two gate rows.
func TestFigure7AngleWins(t *testing.T) {
	sc := tinyScale()
	sc.SmallN = 1500
	got := bounded(run(t, "7a", sc))
	if strings.Join(got, " ") != "mean/angle_minus_grid mean/angle_minus_dim" {
		t.Errorf("Fig. 7's gates are %v", got)
	}
}

// TestTheoremTable: at every x, Theorem 2's gap at or above its bound and
// both Monte-Carlo draws within 0.02 of their closed forms.
func TestTheoremTable(t *testing.T) {
	rs := run(t, "thm", tinyScale())
	if n := len(bounded(rs)); n != 7*3 {
		t.Errorf("%d gate rows, want 21", n)
	}
	if out := rendered(t, "thm", rs); !strings.Contains(out, "D_angle") {
		t.Errorf("table rendering broken:\n%s", out)
	}
}

// TestAblations holds every row of the ablation table to its identities
// (see ablation): each global skyline is the sequential SFS skyline as a
// multiset, the kernel and no-combiner rows reach the default row's local
// skylines, and the combiner cuts the shuffle.
func TestAblations(t *testing.T) {
	sc := tinyScale()
	rs := run(t, "ablation", sc)
	got := bounded(rs)
	if strings.Join(got, " ") != "identities/global_mismatches identities/local_mismatches identities/combiner_cut" {
		t.Errorf("ablation gates are %v", got)
	}
	if len(rs) != 10*6+3 {
		t.Fatalf("%d ablation rows, want ten configurations of six and three identities", len(rs))
	}
	want := float64(len(skyline.SFS(qws.Dataset(sc.Seed, sc.TableN, sc.TableD[1]))))
	for _, r := range rs {
		if strings.HasSuffix(r.Name, "/global") && r.Value != want {
			t.Errorf("%s = %g, sequential SFS %g", r.Name, r.Value, want)
		}
	}
	if out := rendered(t, "ablation", rs); !strings.Contains(out, "MR-Angle BBS kernel") {
		t.Errorf("table rendering broken:\n%s", out)
	}
}

func TestSensitivity(t *testing.T) {
	rs := run(t, "sensitivity", tinyScale())
	if len(rs) != 4*len(Methods)*6 {
		t.Fatalf("%d rows, want %d", len(rs), 4*len(Methods)*6)
	}
	// Skyline sizes per distribution must agree across methods, and the
	// anticorrelated skyline must dwarf the correlated one.
	sizes := map[string]float64{}
	for _, r := range rs {
		line, col := split(r.Name)
		kind := line[:strings.Index(line, "/")]
		switch col {
		case "global":
			if prev, ok := sizes[kind]; ok && prev != r.Value {
				t.Errorf("%s: methods disagree on skyline size (%g vs %g)", kind, prev, r.Value)
			}
			sizes[kind] = r.Value
		case "opt":
			if r.Value < 0 || r.Value > 1 {
				t.Errorf("%s: optimality %g", r.Name, r.Value)
			}
		}
	}
	if sizes["anticorrelated"] <= sizes["correlated"] {
		t.Errorf("anticorrelated skyline (%g) not larger than correlated (%g)", sizes["anticorrelated"], sizes["correlated"])
	}
}

func TestPartitionCount(t *testing.T) {
	sc := tinyScale()
	rs := byName(run(t, "partitions", sc))
	// Local skyline volume must grow with partition count for every
	// method (more partitions → more locally-undominated survivors).
	for _, m := range Methods {
		first, last := rs["x1/"+m.String()+"/localsky"], rs["x8/"+m.String()+"/localsky"]
		if first.Value > last.Value {
			t.Errorf("%v: local skyline volume shrank with partitions: %g -> %g", m, first.Value, last.Value)
		}
		for _, mult := range []int{1, 2, 4, 8} {
			p := rs[fmt.Sprintf("x%d/%v/partitions", mult, m)]
			if p.Value < float64(mult*sc.Nodes) && m.String() != "MR-Dim" {
				t.Errorf("%v x%d: only %g partitions", m, mult, p.Value)
			}
		}
	}
}

// TestSpillGates: at reduced N the spill experiment's count rows hold —
// codec v2/v1 at most 0.7 on correlated and clustered data, auto at most
// v1 everywhere, both streamed runs certified exact with their reducer peaks
// under their budgets, the one whose local skylines fit merged by the
// filter in no round and the other in one blocked round of several groups
// (an ungated row).
func TestSpillGates(t *testing.T) {
	rs := run(t, "spill", tinyScale())
	if byName := byName(rs); byName["stream/merge_rounds"].Value != 1 || byName["stream/merge_groups"].Value < 2 {
		t.Errorf("stream merged in %g rounds of %g groups, want one of >= 2", byName["stream/merge_rounds"].Value, byName["stream/merge_groups"].Value)
	}
	got := bounded(rs)
	want := "correlated/v2_ratio correlated/auto_ratio clustered/v2_ratio clustered/auto_ratio " +
		"independent/auto_ratio anticorrelated/auto_ratio " +
		"stream_fits/reducer_peak_bytes stream_fits/oracle_exact stream_fits/merge_rounds " +
		"stream/reducer_peak_bytes stream/oracle_exact stream/merge_rounds"
	if strings.Join(got, " ") != want {
		t.Errorf("spill gates are %v, want %s", got, want)
	}
}

// TestEveryExperimentRuns runs the whole registry at tiny sizes: every
// experiment returns rows with unique names and units, and draws a chart.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("the whole registry takes a few seconds")
	}
	for _, e := range Registry {
		rs := run(t, e.Name, tinyScale())
		seen := map[string]bool{}
		for _, r := range rs {
			if seen[r.Name] || r.Unit == "" {
				t.Errorf("%s: row %q repeated or without a unit", e.Name, r.Name)
			}
			seen[r.Name] = true
		}
		if len(rs) == 0 || !strings.Contains(rendered(t, e.Name, rs), e.Title) {
			t.Errorf("%s: no rows, or no table", e.Name)
		}
	}
}

func TestScalesSane(t *testing.T) {
	for _, name := range ScaleNames {
		sc, err := ScaleFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.SmallN <= 0 || sc.LargeN <= sc.SmallN || len(sc.Dims) == 0 || len(sc.Servers) == 0 {
			t.Errorf("%s: bad sizes %+v", name, sc)
		}
		if sc.Dims[len(sc.Dims)-1] != 10 {
			t.Errorf("%s: dimension sweep must end at the paper's 10: %v", name, sc.Dims)
		}
		if sc.Gate != (name != "quick") {
			t.Errorf("%s: Gate %v; only quick is report only", name, sc.Gate)
		}
	}
	if _, err := ScaleFor("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
	if _, err := Lookup("5c"); err == nil || !strings.Contains(err.Error(), "critpath-chart") {
		t.Errorf("unknown experiment: %v; want an error listing the names", err)
	}
}

// TestSaveJSON round-trips the results file.
func TestSaveJSON(t *testing.T) {
	res := Results{Scale: "test", Seed: 7, Pass: true}
	res.Add("7a", run(t, "7a", tinyScale()))
	path := filepath.Join(t.TempDir(), "results.json")
	if err := res.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("round trip: %v\n%s", err, blob)
	}
	if back.Scale != "test" || back.Seed != 7 || !back.Pass || len(back.Rows) != len(res.Rows) {
		t.Fatalf("round trip: %+v", back)
	}
	for i, r := range back.Rows {
		want := res.Rows[i]
		if r.Experiment != "7a" || r.Name != want.Name || r.Value != want.Value || (r.Bound == nil) != (want.Bound == nil) {
			t.Fatalf("row %d: %+v, want %+v", i, r, want)
		}
	}
	if !strings.Contains(string(blob), "MR-Angle") {
		t.Errorf("JSON lacks scheme names:\n%s", blob)
	}
}

// TestGateFailsTheRun: one row past its bound fails the whole run — Pass
// false in the results file and exit status 1 — while bounds that hold
// pass, and an experiment's error is status 2.
func TestGateFailsTheRun(t *testing.T) {
	gated := func(v float64) Experiment {
		return Experiment{Name: "fake", Title: "fake", Plot: "ratio", Run: func(context.Context, Scale) ([]Row, error) {
			var r rows
			r.gate(true, "a/ratio", 0.5, "ratio", "lower", 0.7)
			r.gate(true, "b/ratio", v, "ratio", "higher", 1)
			return r, nil
		}}
	}
	broken := Experiment{Name: "broken", Run: func(context.Context, Scale) ([]Row, error) { return nil, errors.New("boom") }}
	for _, tc := range []struct {
		exp  Experiment
		code int
		pass bool
	}{{gated(1), 0, true}, {gated(0.99), 1, false}, {broken, 2, false}} {
		path := filepath.Join(t.TempDir(), "results.json")
		var out bytes.Buffer
		if code := Main(context.Background(), &out, []Experiment{tc.exp}, tinyScale(), true, path); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.exp.Name, code, tc.code, out.String())
		}
		if tc.code == 2 {
			continue
		}
		var res Results
		blob, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(blob, &res)
		}
		if err != nil || res.Pass != tc.pass {
			t.Errorf("%s: results file pass=%v (%v), want %v", tc.exp.Name, res.Pass, err, tc.pass)
		}
		if failed := strings.Contains(out.String(), "FAIL b/ratio"); failed == tc.pass {
			t.Errorf("%s: output lists the failing gate: %v\n%s", tc.exp.Name, failed, out.String())
		}
	}
}
