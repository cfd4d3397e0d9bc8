package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs every workload, timed and traced, at quick sizes: every
// catalogue metric must come out finite (runOne checks that), no operation
// may fail, and the trace must be well-formed.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{w: w.quick(), seed: 2012, seconds: 0.1, quick: true, outDir: out}
			rep, err := runOne(cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d: %v", w.Name, traced, rep.Attempted, rep.Failed, rep.Failures)
			}
			if traced {
				checkTrace(t, filepath.Join(out, "trace-"+w.Name+".json"))
			}
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	byID := map[int]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	children := map[int]int64{}
	jobRuns := map[string]int{}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d %q ends before it starts", path, s.ID, s.Name)
		}
		if s.Run == "" || s.Layer == "" || s.Name == "" {
			t.Errorf("%s: span %d lacks a run, layer or name: %+v", path, s.ID, s)
		}
		if s.Parent == 0 {
			if s.Layer == layerBench {
				jobRuns[s.Run]++
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d has unknown parent %d", path, s.ID, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d %q is not enclosed by its parent %q", path, s.ID, s.Name, p.Name)
		}
		if s.Run != p.Run {
			t.Errorf("%s: span %d run %q differs from its parent's %q", path, s.ID, s.Run, p.Run)
		}
		children[s.Parent] += s.End - s.Start
	}
	for id, covered := range children {
		if p := byID[id]; covered > p.End-p.Start {
			t.Errorf("%s: span %d %q has negative self time", path, id, p.Name)
		}
	}
	for run, n := range jobRuns {
		if n != 1 {
			t.Errorf("%s: run identifier %q is shared by %d jobs", path, run, n)
		}
	}
	for layer, s := range tf.LayerSelf {
		if s < 0 {
			t.Errorf("%s: layer %s has negative self time %v", path, layer, s)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the harness's
// own registry from drifting, and holds every name to the allowed alphabet.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := catalogueJSON()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the harness's catalogue; regenerate it with `bash bench/run.sh -catalogue > BENCHMARK.json`\n got %+v\nwant %+v", got, want)
	}
	seen := map[string]bool{}
	for _, w := range want.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || w.Why == "" {
			t.Errorf("bad or repeated workload %+v", w)
		}
		seen[w.Name] = true
	}
	for _, m := range append(append([]jsonMetric(nil), want.EndToEnd...), want.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] || m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad or repeated metric %+v", m)
		}
		seen[m.Name] = true
	}
}
