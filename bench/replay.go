package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/hyper"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/sequencefile"
	"repro/internal/skyline"
)

// replaySplits is the number of map tasks of a Workers:1 job (the engine's
// default of four tasks per worker). The replay is held against that job.
const replaySplits = 4

// replay is the staged replay: one Workers:1 job's work done on one
// goroutine by calling the layers' exported functions in the driver's
// order, each call inside a span, so that a layer's share of a job can be
// read from outside the program. It returns the self seconds per layer of
// the "replay" run; trace.coverage is their sum over driver.job_serial_s.
//
// Partitioning job: points.Encode → partition.New → DecodeInto → Assign →
// per map task mapreduce.BuildFrames with the local-skyline combiner
// (skyline.BlockBNL, a child span, so BuildFrames' self time is the frame
// build alone) → AssembleFrames → BlockBNL per partition → AppendFrameCodec.
// Merging job: Encode of the local skylines → per map task BuildFrames
// (DecodeInto in the mapper, BlockBNL combiner) → AssembleFrames →
// ParallelBlock. The stream path adds the sequencefile round trip of the
// shuffle streams and merges with BudgetedFold instead.
//
// Rows that are not a step of the job — the whole input through
// BuildFrames without a combiner, AssembleFrames and BlockBNL per full
// partition, ReduceFrames, the v1/v2 codecs, AnglesOf alone, and whichever
// merge and spill the path does not use — are measured afterwards under
// the "probes" run and do not count towards coverage.
func (e *env) replay(rep *report, tr *tracer, verify func(string, points.Set, error)) (map[string]float64, error) {
	const run, probes = "replay", "probes"
	data, n, d := e.data, float64(len(e.data)), e.w.D
	stream := e.w.Path == pathStream
	codec := points.FrameDefault
	if stream {
		codec = points.FrameAuto
	}
	perPoint := func(s float64) float64 { return s * 1e9 / n }
	var fail error
	// leaf times one call into a layer as a span under parent.
	leaf := func(parent int, runID, layer, name string, fn func() error) float64 {
		return tr.call(parent, runID, layer, name, func() {
			if err := fn(); err != nil && fail == nil {
				fail = fmt.Errorf("%s: %w", name, err)
			}
		})
	}
	probe := func(layer, name string, fn func() error) float64 { return leaf(0, probes, layer, name, fn) }

	var (
		records [][]byte
		ids     = make([]int, len(data))
		locals  = map[int]*points.Block{}
		global  *points.Block
	)
	// assigned feeds BuildFrames the partition ids Assign already found, so
	// the frame build is timed without the decode and the assign inside it.
	assigned := func(from int) mapreduce.FrameMapper {
		i := from
		return mapreduce.FrameMapperFunc(func(_ []byte, emit mapreduce.EmitPoint) error {
			emit(ids[i], data[i])
			i++
			return nil
		})
	}
	decoding := mapreduce.FrameMapperFunc(func(rec []byte, emit mapreduce.EmitPoint) error {
		p, err := points.DecodeInto(make(points.Point, 0, d), rec)
		if err != nil {
			return err
		}
		emit(0, p)
		return nil
	})
	// mapTasks runs BuildFrames once per split with the combiner as a child
	// span, and returns every task's streams.
	mapTasks := func(parent int, recs [][]byte, mapper func(from int) mapreduce.FrameMapper) [][]byte {
		var streams [][]byte
		size := (len(recs) + replaySplits - 1) / replaySplits
		for lo := 0; lo < len(recs); lo += size {
			hi := min(lo+size, len(recs))
			tr.do(parent, run, "mapreduce", "BuildFrames", func(task int) {
				combiner := func(_ int, blk *points.Block) (out *points.Block, _ error) {
					tr.call(task, run, "skyline", "BlockBNL combiner", func() { out = skyline.BlockBNL(blk) })
					return out, nil
				}
				s, _, err := mapreduce.BuildFrames(recs[lo:hi], 1, mapper(lo), combiner, codec)
				if err != nil && fail == nil {
					fail = fmt.Errorf("BuildFrames: %w", err)
				}
				streams = append(streams, s...)
			})
		}
		return streams
	}
	budgetFold := func(src *points.Block, keep bool) func() error {
		return func() error {
			fold := skyline.NewBudgetedFold(d, reducerBudget, e.tmp, points.FrameAuto)
			if err := fold.Absorb(src); err != nil {
				return err
			}
			out, err := fold.Finish()
			if err != nil {
				return err
			}
			st := fold.Stats()
			rep.set("skyline.budget_fold_passes", float64(st.Passes))
			rep.set("skyline.budget_fold_peak_bytes", float64(st.PeakBytes))
			if keep {
				global = out
			}
			return nil
		}
	}
	seqRoundTrip := func(parent int, runID string, streams [][]byte) {
		path := filepath.Join(e.tmp, "replay.seq")
		var bytes int
		write := leaf(parent, runID, "sequencefile", "write", func() (err error) {
			bytes, err = writeStreams(path, streams)
			return err
		})
		read := leaf(parent, runID, "sequencefile", "read", func() error { return readStreams(path, len(streams), bytes) })
		os.Remove(path)
		rep.set("sequencefile.write_mb_per_s", float64(bytes)/1e6/write)
		rep.set("sequencefile.read_mb_per_s", float64(bytes)/1e6/read)
	}

	tr.do(0, run, layerBench, "job", func(job int) {
		tr.do(job, run, layerBench, "partitioning job", func(stage int) {
			rep.set("points.encode_ns_per_point", perPoint(leaf(stage, run, "points", "Encode", func() error {
				records = make([][]byte, len(data))
				for i, p := range data {
					records[i] = points.Encode(p)
				}
				return nil
			})))
			var part partition.Partitioner
			rep.set("partition.fit_s", leaf(stage, run, "partition", "New", func() (err error) {
				part, err = partition.New(partition.Angular, data, partitions)
				return err
			}))
			if fail != nil {
				return
			}
			rep.set("points.decode_ns_per_point", perPoint(leaf(stage, run, "points", "DecodeInto", func() error {
				buf := make(points.Point, 0, d)
				for _, r := range records {
					if _, err := points.DecodeInto(buf[:0], r); err != nil {
						return err
					}
				}
				return nil
			})))
			counts := make([]int, part.Partitions())
			rep.set("partition.assign_ns_per_point", perPoint(leaf(stage, run, "partition", "Assign", func() error {
				for i, p := range data {
					id, err := part.Assign(p)
					if err != nil {
						return err
					}
					ids[i] = id
					counts[id]++
				}
				return nil
			})))
			rep.set("partition.imbalance", partition.ImbalanceRatio(counts))
			var streams [][]byte
			rep.set("mapreduce.build_frames_combined_s", tr.do(stage, run, layerBench, "map tasks", func(tasks int) {
				streams = mapTasks(tasks, records, assigned)
			}))
			if stream {
				seqRoundTrip(stage, run, streams)
			}
			var blocks map[int]*points.Block
			leaf(stage, run, "mapreduce", "AssembleFrames", func() (err error) {
				blocks, err = mapreduce.AssembleFrames(streams)
				return err
			})
			for _, id := range sortedIDs(blocks) {
				leaf(stage, run, "skyline", fmt.Sprintf("BlockBNL partition %d", id), func() error {
					locals[id] = skyline.BlockBNL(blocks[id])
					return nil
				})
			}
			leaf(stage, run, "points", "AppendFrameCodec", func() error {
				var sealed []byte
				for _, id := range sortedIDs(locals) {
					sealed = points.AppendFrameCodec(sealed, id, locals[id], codec)
				}
				return nil
			})
		})
		if fail != nil {
			return
		}
		tr.do(job, run, layerBench, "merging job", func(stage int) {
			var mergeInput [][]byte
			leaf(stage, run, "points", "Encode local skylines", func() error {
				for _, id := range sortedIDs(locals) {
					for i := 0; i < locals[id].Len(); i++ {
						mergeInput = append(mergeInput, points.Encode(points.Point(locals[id].Row(i))))
					}
				}
				return nil
			})
			var streams [][]byte
			tr.do(stage, run, layerBench, "map tasks", func(tasks int) {
				streams = mapTasks(tasks, mergeInput, func(int) mapreduce.FrameMapper { return decoding })
			})
			var candidates *points.Block
			leaf(stage, run, "mapreduce", "AssembleFrames", func() error {
				blocks, err := mapreduce.AssembleFrames(streams)
				candidates = blocks[0]
				return err
			})
			if fail != nil || candidates == nil {
				return
			}
			if stream {
				rep.set("skyline.budget_fold_s", leaf(stage, run, "skyline", "BudgetedFold", budgetFold(candidates, true)))
			} else {
				leaf(stage, run, "skyline", "ParallelBlock workers=1", func() error {
					global = skyline.ParallelBlock(context.Background(), candidates, 1)
					return nil
				})
			}
		})
	})
	if fail != nil {
		return nil, fail
	}
	if global == nil {
		return nil, fmt.Errorf("the replay produced no skyline")
	}
	verify("staged replay", global.ToSet(), nil)

	// Probes: the layer rows that are not a step of the job.
	var streams [][]byte
	rep.set("mapreduce.build_frames_s", probe("mapreduce", "BuildFrames no combiner", func() (err error) {
		streams, _, err = mapreduce.BuildFrames(records, engineWorkers, assigned(0), nil, codec)
		return err
	}))
	var blocks map[int]*points.Block
	rep.set("mapreduce.assemble_s", probe("mapreduce", "AssembleFrames", func() (err error) {
		blocks, err = mapreduce.AssembleFrames(streams)
		return err
	}))
	var localS []float64
	union := points.NewBlock(d, 0)
	for _, id := range sortedIDs(blocks) {
		localS = append(localS, probe("skyline", fmt.Sprintf("BlockBNL partition %d", id), func() error {
			union.AppendBlock(skyline.BlockBNL(blocks[id]))
			return nil
		}))
	}
	rep.set("skyline.local_s", sum(localS))
	rep.set("skyline.local_max_s", slices.Max(localS))
	rep.set("skyline.merge_s", probe("skyline", "ParallelBlock workers=2", func() error {
		skyline.ParallelBlock(context.Background(), union, engineWorkers)
		return nil
	}))
	if !stream {
		rep.set("skyline.budget_fold_s", probe("skyline", "BudgetedFold", budgetFold(union, false)))
		seqRoundTrip(0, probes, streams)
	}
	rep.set("mapreduce.reduce_frames_s", probe("mapreduce", "ReduceFrames", func() error {
		localSkyline := mapreduce.FrameReducerFunc(func(id int, blk *points.Block, emit mapreduce.EmitPoint) error {
			sky := skyline.BlockBNL(blk)
			for i := 0; i < sky.Len(); i++ {
				emit(id, sky.Row(i))
			}
			return nil
		})
		_, _, err := mapreduce.ReduceFrames(streams, localSkyline, codec)
		return err
	}))
	rep.set("hyper.angles_ns_per_point", perPoint(probe("hyper", "AnglesOf", func() error {
		for _, p := range data {
			if _, err := hyper.AnglesOf(p); err != nil {
				return err
			}
		}
		return nil
	})))
	var v1Bytes, v2Bytes int
	for _, c := range []struct {
		key   string
		codec points.FrameCodec
		bytes *int
	}{{"v1", points.FrameV1, &v1Bytes}, {"v2", points.FrameV2, &v2Bytes}} {
		var sealed []byte
		rep.set("points.frame_"+c.key+"_encode_ns_per_point", perPoint(probe("points", "AppendFrameCodec "+c.key, func() error {
			for _, id := range sortedIDs(blocks) {
				sealed = points.AppendFrameCodec(sealed, id, blocks[id], c.codec)
			}
			return nil
		})))
		*c.bytes = len(sealed)
		rep.set("points.frame_"+c.key+"_decode_ns_per_point", perPoint(probe("points", "DecodeFrame "+c.key, func() error {
			scratch := points.NewBlock(d, 0)
			for rest := sealed; len(rest) > 0; {
				scratch.Reset()
				var err error
				if _, rest, err = points.DecodeFrame(scratch, rest); err != nil {
					return err
				}
			}
			return nil
		})))
	}
	rep.set("points.frame_v2_ratio", float64(v2Bytes)/float64(v1Bytes))
	if fail != nil {
		return nil, fail
	}
	return selfSeconds(tr.snapshot(), run), nil
}

func sortedIDs(m map[int]*points.Block) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// writeStreams writes each frame stream as one record, as the engine's
// spill does, and returns the payload bytes written.
func writeStreams(path string, streams [][]byte) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close() // error paths only; the success path checks Close below
	bw := bufio.NewWriter(f)
	w := sequencefile.NewWriter(bw)
	total := 0
	for i, s := range streams {
		if err := w.Append([]byte{byte(i)}, s); err != nil {
			return 0, err
		}
		total += len(s)
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return total, f.Close()
}

func readStreams(path string, records, bytes int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := sequencefile.NewReader(bufio.NewReader(f))
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		records--
		bytes -= len(rec.Value)
	}
	if records != 0 || bytes != 0 {
		return fmt.Errorf("sequencefile round trip lost %d records, %d bytes", records, bytes)
	}
	return nil
}
