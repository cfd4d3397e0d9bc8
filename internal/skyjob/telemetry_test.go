package skyjob

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/rpcmr"
	"repro/internal/telemetry"
)

// startMeteredCluster starts a master booking into reg and its workers;
// the last worker sleeps stall before every task (0: none does).
func startMeteredCluster(t *testing.T, workers int, reg *telemetry.Registry, stall time.Duration) *rpcmr.Master {
	t.Helper()
	master, err := rpcmr.NewMaster(rpcmr.MasterConfig{SplitSize: 200, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	for i := 0; i < workers; i++ {
		cfg := rpcmr.WorkerConfig{
			MasterAddr:   master.Addr(),
			ID:           "mw" + strconv.Itoa(i),
			PollInterval: 5 * time.Millisecond,
		}
		if i == workers-1 {
			cfg.TaskStall = stall
		}
		w, err := rpcmr.NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		go func() { _ = w.Run(context.Background()) }()
	}
	return master
}

// TestComputeTrace: a traced two-job run must yield the nested span tree
// the paper's Figure 6 breakdown is read from — a root skyline span with
// Partitioning and Merging children, each wrapping an rpcmr job span
// that itself has map/shuffle/reduce children — and the tree must export
// as valid Chrome trace_event JSON.
func TestComputeTrace(t *testing.T) {
	reg := telemetry.NewRegistry()
	master := startMeteredCluster(t, 2, reg, 0)
	tr := telemetry.NewTracer()
	ctx := telemetry.WithTracer(context.Background(), tr)
	data := uniformSet(7, 600, 2)
	res, err := Compute(ctx, master, data, partition.Angular, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) == 0 {
		t.Fatal("empty skyline")
	}

	byName := map[string]telemetry.SpanData{}
	parents := map[uint64]telemetry.SpanData{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
		parents[s.ID] = s
	}
	root, ok := byName["skyline:MR-Angle"]
	if !ok {
		t.Fatalf("no root span; got %v", names(tr))
	}
	for jobSpanName, wrapped := range map[string]string{
		"partitioning-job": "rpcmr-job:" + PartitionJobName,
		"merging-job":      "rpcmr-job:" + MergeJobName,
	} {
		js, ok := byName[jobSpanName]
		if !ok {
			t.Fatalf("no %s span; got %v", jobSpanName, names(tr))
		}
		if js.Parent != root.ID {
			t.Errorf("%s is not a child of the root span", jobSpanName)
		}
		ws, ok := byName[wrapped]
		if !ok {
			t.Fatalf("no %s span; got %v", wrapped, names(tr))
		}
		if ws.Parent != js.ID {
			t.Errorf("%s is not a child of %s", wrapped, jobSpanName)
		}
	}
	// Phase spans exist per job; each one's ancestry must reach the root.
	phases := 0
	for _, s := range tr.Spans() {
		switch s.Name {
		case "map", "shuffle", "reduce":
			phases++
			cur := s
			for cur.Parent != 0 {
				cur = parents[cur.Parent]
			}
			if cur.ID != root.ID {
				t.Errorf("%s span not rooted at the skyline span", s.Name)
			}
		}
	}
	if phases != 4 { // Job 1's 3 phases + the map-only merging job's map
		t.Errorf("phase spans = %d, want 4", phases)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(tr.Spans()) {
		t.Errorf("trace events = %d, spans = %d", len(doc.TraceEvents), len(tr.Spans()))
	}

	// Per-partition gauges landed on the master's registry.
	snap := reg.Snapshot()
	sizes := 0
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "skyline_partition_local_size{") {
			sizes++
		}
	}
	if sizes != len(res.LocalSkylines) {
		t.Errorf("local-size gauges = %d, partitions with output = %d", sizes, len(res.LocalSkylines))
	}
	if snap.Gauges["skyline_global_size"] != float64(len(res.Skyline)) {
		t.Errorf("skyline_global_size = %v, want %d", snap.Gauges["skyline_global_size"], len(res.Skyline))
	}
}

func names(tr *telemetry.Tracer) []string {
	var out []string
	for _, s := range tr.Spans() {
		out = append(out, s.Name)
	}
	return out
}
