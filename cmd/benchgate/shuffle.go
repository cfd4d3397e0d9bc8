package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
)

// The shuffle suite isolates the data-movement path the block-framed
// shuffle replaced: partition assignment, emit, shuffle and reducer-side
// assembly, with an identity reduce so no kernel time dilutes the
// measurement. The classic row runs the Pair plumbing (string keys, one
// []byte value per point); the framed row runs the same workload through
// RunFrames, which is fed the point set's rows directly. Both see the same
// points and an identical partitioner.
const shuffleNote = "identity reduce: rows time pure shuffle work, not skyline kernels; " +
	"shuffle_bytes are payload semantics — key+value bytes on the classic path, " +
	"frame payload bytes (header + packed coords, no gob envelope) on the framed path"

type shuffleRow struct {
	Path           string  `json:"path"`
	WallNS         int64   `json:"wall_ns"`
	RecordsPerSec  float64 `json:"records_per_sec"`
	ShuffleRecords int64   `json:"shuffle_records"`
	ShuffleBytes   int64   `json:"shuffle_bytes"`
	AllocsPerPoint float64 `json:"allocs_per_point"`
}

type shuffleReport struct {
	Timestamp  string     `json:"timestamp"`
	N          int        `json:"n"`
	D          int        `json:"d"`
	Reducers   int        `json:"reducers"`
	Runs       int        `json:"runs"`
	Quick      bool       `json:"quick"`
	Classic    shuffleRow `json:"classic"`
	Framed     shuffleRow `json:"framed"`
	Throughput float64    `json:"throughput_ratio"`
	BytesRatio float64    `json:"bytes_ratio"`
	MinSpeedup float64    `json:"min_speedup"`
	Gated      bool       `json:"gated"`
	Pass       bool       `json:"pass"`
	Notes      string     `json:"notes"`
}

// measureShuffle times fn best-of-runs, then takes one extra instrumented
// pass for the allocation count (GC fenced so only Mallocs from the run
// itself are attributed).
func measureShuffle(path string, n, runs int, fn func() (records, bytes int64)) shuffleRow {
	var recs, bytes int64
	wall := best(runs, func() { recs, bytes = fn() })

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)

	return shuffleRow{
		Path:           path,
		WallNS:         wall,
		RecordsPerSec:  float64(n) / (float64(wall) / float64(time.Second)),
		ShuffleRecords: recs,
		ShuffleBytes:   bytes,
		AllocsPerPoint: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
}

func shuffleSuite(n, d, nodes, runs int, min float64, quick bool, out string) {
	fmt.Fprintf(os.Stderr, "benchgate: shuffle suite n=%d d=%d reducers=%d runs=%d\n", n, d, nodes, runs)
	data := qws.Dataset(2012, n, d)
	part, err := partition.New(partition.Angular, data, nodes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	input := make([][]byte, len(data))
	for i, p := range data {
		input[i] = points.Encode(p)
	}
	ctx := context.Background()
	cfg := mapreduce.Config{Name: "shuffle-bench", Workers: nodes, Reducers: nodes}

	classic := func() (int64, int64) {
		mapper := mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
			p, err := points.Decode(rec)
			if err != nil {
				return err
			}
			id, err := part.Assign(p)
			if err != nil {
				return err
			}
			emit(strconv.Itoa(id), rec)
			return nil
		})
		identity := mapreduce.ReducerFunc(func(key string, values [][]byte, emit mapreduce.Emit) error {
			for _, v := range values {
				emit(key, v)
			}
			return nil
		})
		res, err := mapreduce.Run(ctx, cfg, input, mapper, identity)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: classic shuffle failed:", err)
			os.Exit(2)
		}
		snap := res.Counters.Snapshot()
		return snap[mapreduce.CounterShuffle], snap[mapreduce.CounterShuffleBytes]
	}

	framed := func() (int64, int64) {
		mapper := func(row []float64, emit mapreduce.EmitPoint) error {
			id, err := part.Assign(row)
			if err == nil {
				emit(id, row)
			}
			return err
		}
		identity := mapreduce.FrameReducerFunc(func(partition int, blk *points.Block, emit mapreduce.EmitPoint) error {
			for i := 0; i < blk.Len(); i++ {
				emit(partition, blk.Row(i))
			}
			return nil
		})
		res, err := mapreduce.RunFrames(ctx, cfg, mapreduce.FrameJob{
			Feed: mapreduce.SetRows(data), Mapper: mapper, Reducer: identity})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: framed shuffle failed:", err)
			os.Exit(2)
		}
		snap := res.Counters.Snapshot()
		return snap[mapreduce.CounterShuffle], snap[mapreduce.CounterShuffleBytes]
	}

	rep := shuffleReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		N:          n,
		D:          d,
		Reducers:   nodes,
		Runs:       runs,
		Quick:      quick,
		MinSpeedup: min,
		Gated:      !quick,
		Notes:      shuffleNote,
	}
	rep.Classic = measureShuffle("classic_pairs", n, runs, classic)
	rep.Framed = measureShuffle("block_frames", n, runs, framed)
	rep.Throughput = rep.Framed.RecordsPerSec / rep.Classic.RecordsPerSec
	rep.BytesRatio = float64(rep.Framed.ShuffleBytes) / float64(rep.Classic.ShuffleBytes)

	rep.Pass = true
	if !quick {
		if rep.Throughput < min {
			rep.Pass = false
		}
		if rep.Framed.AllocsPerPoint >= rep.Classic.AllocsPerPoint {
			rep.Pass = false
		}
	}
	for _, r := range []shuffleRow{rep.Classic, rep.Framed} {
		fmt.Fprintf(os.Stderr, "  %-14s wall=%-12s records/s=%-12.0f shuffle_bytes=%-10d allocs/pt=%.2f\n",
			r.Path, time.Duration(r.WallNS), r.RecordsPerSec, r.ShuffleBytes, r.AllocsPerPoint)
	}
	fmt.Fprintf(os.Stderr, "  throughput ratio %.2fx, shuffle-byte ratio %.2fx\n",
		rep.Throughput, rep.BytesRatio)

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchgate: wrote %s\n", out)
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — framed shuffle below %.2fx throughput or did not cut allocs/point\n", min)
		os.Exit(1)
	}
}
