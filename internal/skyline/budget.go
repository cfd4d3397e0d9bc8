package skyline

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/points"
	"repro/internal/sequencefile"
)

// BudgetedFold is a streaming skyline accumulator whose working memory is
// bounded by an explicit byte budget. It is external BNL re-expressed
// over the flat block kernels: candidates are scanned against a bounded
// window — the same signature-pruned scan step as every other kernel, see
// window.go — and candidates that survive a full window overflow to a
// temporary frame-encoded sequence file instead of growing it. Finish
// resolves the overflow in further passes until none remains.
//
// Correctness follows the classic BNL timestamp argument: a window row
// inserted before the pass's first overflow write has been compared
// against every other point of the pass (earlier points put it in the
// window or died against it, later points were scanned over it), so if
// it survives the pass it is in the true skyline and is confirmed.
// Rows inserted after the first overflow write have missed the overflow
// points already on disk, so they are carried — re-fed as the next
// pass's input prefix ahead of the overflow stream. Every pass inserts
// its first candidate into an empty window, before any overflow, so each
// pass confirms or kills at least one point and the loop terminates.
//
// Duplicate rows are retained, exactly as the in-memory kernels retain
// them, so BudgetedFold(…) == FlatBNL(…) as multisets on any input.
//
// A block that is already a skyline — a map task's sealed window — may come
// in by AbsorbSealed, which tests each of its rows only against the rows
// the fold held before the block: its own rows cannot dominate each other.
// A skipped pair could have dominated in neither direction, so the
// timestamp rule and the overflow passes stand as they are.
//
// The budget bounds the fold's working state (window, overflow write
// buffer, decode scratch). The confirmed result necessarily lives in
// memory too and is counted in PeakBytes, so a skyline larger than the
// budget reports a peak above it rather than lying.
type BudgetedFold struct {
	dim      int
	winCap   int // window rows the budget allows
	obufCap  int // overflow write-buffer rows
	spillDir string

	confirmed     *points.Block
	win           *window // timed: each row carries its insertion tick
	tick          int64
	firstOverflow int64 // tick of this pass's first overflow write; -1 while none
	kept          []int // AbsorbSealed's survivors of the block's scan, by index

	of      *os.File
	ow      *sequencefile.Writer
	obuf    *points.Block
	codec   points.FrameCodec
	scratch []byte

	stats FoldStats
	done  bool
}

// FoldStats describes one BudgetedFold run.
type FoldStats struct {
	Passes         int   // resolution passes (1 = everything fit the window)
	OverflowPoints int64 // points written to overflow files across all passes
	OverflowBytes  int64 // frame-encoded bytes written to overflow files
	PeakBytes      int64 // high-water mark of window+buffers+result memory
}

// NewBudgetedFold creates a fold over dim-dimensional rows holding at
// most budgetBytes of working state. Overflow files go to spillDir (the
// OS temp dir when empty). The budget is a bound on one algorithm, not a
// choice between two: budgetBytes <= 0 is no bound — the window never
// fills, so nothing overflows, no file is opened and Finish is the one
// pass, i.e. a fold fed by Absorb alone is BlockBNL fed a frame at a time
// (same survivors, same order, same dominance tests); one fed by
// AbsorbSealed keeps the same survivors as a multiset, in another order,
// for fewer tests. A positive budget too small for even
// one window row still works — the window is clamped to one row and
// resolution degrades toward quadratic passes, which the tiny-budget tests
// exercise on purpose. Overflow frames are encoded with codec
// (FrameDefault → v1).
func NewBudgetedFold(dim int, budgetBytes int64, spillDir string, codec points.FrameCodec) *BudgetedFold {
	if dim <= 0 {
		panic(fmt.Sprintf("skyline: BudgetedFold dimension %d", dim))
	}
	winCap := math.MaxInt
	if budgetBytes > 0 {
		winCap = int(max(budgetBytes/int64(dim*8), 1))
	}
	obufCap := winCap
	if obufCap > 256 {
		obufCap = 256
	}
	win := newWindow(dim, 0) // sized by Expect, or grown with the skyline as BlockBNL's
	win.timed = true
	return &BudgetedFold{
		dim:           dim,
		winCap:        winCap,
		obufCap:       obufCap,
		spillDir:      spillDir,
		confirmed:     points.NewBlock(dim, 0),
		win:           win,
		firstOverflow: -1,
		codec:         codec,
		stats:         FoldStats{Passes: 1},
	}
}

// Expect tells the fold that rows more rows are coming: it sizes its window
// — rows, signatures and ticks — once, for every row it could then hold,
// and no more than the budget lets it, so that it is not grown by doubling
// as the survivors arrive. The engine's reduce body calls it with the rows
// of a partition's frames (mapreduce.SizedFold). It changes no result.
func (f *BudgetedFold) Expect(rows int) {
	if !f.done {
		f.win.reserve(min(f.win.rows.Len()+rows, f.winCap))
	}
}

// Absorb feeds every row of blk into the fold. blk is not retained.
func (f *BudgetedFold) Absorb(blk *points.Block) error {
	if err := f.check(blk); err != nil || blk.Len() == 0 {
		return err
	}
	n := blk.Len()
	for i := 0; i < n; i++ {
		if err := f.absorbRow(blk.Row(i)); err != nil {
			return err
		}
	}
	f.notePeak(int64(n) * int64(f.dim) * 8) // caller's block is live during the scan
	return nil
}

// AbsorbSealed is Absorb for a block no row of which dominates another (a
// skyline, duplicates allowed): each row is tested only against the rows
// the fold held before blk, so the first block goes in with no test at all.
// It scans every row of blk before it inserts any: a survivor's insertion
// waits until the whole block is scanned, then goes in — or overflows —
// with the tick its place in blk gives it, as Absorb's would. On a block
// that breaks the precondition the result is wrong.
func (f *BudgetedFold) AbsorbSealed(blk *points.Block) error {
	if err := f.check(blk); err != nil || blk.Len() == 0 {
		return err
	}
	n := blk.Len()
	f.kept = slices.Grow(f.kept[:0], n)
	for i := 0; i < n; i++ {
		if f.win.scan(blk.Row(i)) {
			f.kept = append(f.kept, i)
		}
	}
	f.win.psigned = false // the last scan's signature is no survivor's
	base := f.tick
	for _, i := range f.kept {
		f.tick = base + int64(i) + 1
		if err := f.keep(blk.Row(i)); err != nil {
			return err
		}
	}
	f.tick = base + int64(n)
	f.notePeak(int64(n) * int64(f.dim) * 8)
	return nil
}

// check rejects a block the fold cannot take: after Finish or Close, or of
// another dimension. An empty block passes.
func (f *BudgetedFold) check(blk *points.Block) error {
	if f.done {
		return fmt.Errorf("skyline: Absorb after Finish or Close")
	}
	if blk.Len() > 0 && blk.Dim() != f.dim {
		return fmt.Errorf("skyline: absorbing %d-dim block into %d-dim fold", blk.Dim(), f.dim)
	}
	return nil
}

// AbsorbRow feeds a single row.
func (f *BudgetedFold) AbsorbRow(p []float64) error {
	if f.done {
		return fmt.Errorf("skyline: Absorb after Finish or Close")
	}
	if len(p) != f.dim {
		return fmt.Errorf("skyline: absorbing %d-dim row into %d-dim fold", len(p), f.dim)
	}
	return f.absorbRow(p)
}

// absorbRow is one BNL step against the bounded window: kill p if a
// window row dominates it, evict window rows p dominates, then keep p.
func (f *BudgetedFold) absorbRow(p []float64) error {
	f.tick++
	if !f.win.scan(p) {
		return nil
	}
	return f.keep(p)
}

// keep inserts p, which its scan found to survive, stamped with the
// current tick if the window has room, and overflows it otherwise.
func (f *BudgetedFold) keep(p []float64) error {
	if f.win.rows.Len() < f.winCap {
		f.win.push(p, f.tick)
		return nil
	}
	return f.overflowRow(p)
}

// overflowRow batches p into the overflow write buffer, flushing full
// buffers to the pass's overflow file as one frame record.
func (f *BudgetedFold) overflowRow(p []float64) error {
	if f.firstOverflow < 0 {
		f.firstOverflow = f.tick
	}
	if f.obuf == nil {
		f.obuf = points.NewBlock(f.dim, f.obufCap)
	}
	f.obuf.AppendRow(p)
	f.stats.OverflowPoints++
	if f.obuf.Len() >= f.obufCap {
		return f.flushOverflow()
	}
	return nil
}

func (f *BudgetedFold) flushOverflow() error {
	if f.obuf == nil || f.obuf.Len() == 0 {
		return nil
	}
	if f.ow == nil {
		of, err := os.CreateTemp(f.spillDir, "budgetfold-*.fseq")
		if err != nil {
			return fmt.Errorf("skyline: creating overflow file: %w", err)
		}
		f.of = of
		f.ow = sequencefile.NewWriter(of)
	}
	f.scratch = points.AppendFrameCodec(f.scratch[:0], 0, f.obuf, f.codec)
	if err := f.ow.Append(nil, f.scratch); err != nil {
		return fmt.Errorf("skyline: writing overflow: %w", err)
	}
	f.stats.OverflowBytes += int64(len(f.scratch))
	f.obuf.Reset()
	return nil
}

// notePeak records the current working-set high-water mark, plus extra
// transient bytes the caller knows are live (decode scratch, input).
func (f *BudgetedFold) notePeak(extra int64) {
	rowBytes := int64(f.dim * 8)
	live := int64(f.win.rows.Len()+f.confirmed.Len()) * rowBytes
	if f.obuf != nil {
		live += int64(f.obuf.Len()) * rowBytes
	}
	live += int64(len(f.scratch)) + extra
	if live > f.stats.PeakBytes {
		f.stats.PeakBytes = live
	}
}

// Finish resolves any overflow and returns the exact skyline of every
// absorbed row. The fold cannot be used afterwards.
func (f *BudgetedFold) Finish() (*points.Block, error) {
	if f.done {
		return nil, fmt.Errorf("skyline: Finish after Finish or Close")
	}
	// Publishes the window's tests and, on an error path, removes the
	// overflow file the loop did not consume.
	defer f.Close()
	for f.firstOverflow >= 0 || (f.obuf != nil && f.obuf.Len() > 0) {
		if err := f.flushOverflow(); err != nil {
			return nil, err
		}
		if err := f.ow.Flush(); err != nil {
			return nil, fmt.Errorf("skyline: flushing overflow: %w", err)
		}
		overflow := f.of
		f.of, f.ow = nil, nil

		// Split the window by the timestamp rule: rows inserted before
		// this pass's first overflow write are confirmed skyline points;
		// the rest are carried into the next pass ahead of the overflow
		// stream.
		carried := points.NewBlock(f.dim, 0)
		for j, tick := range f.win.ticks {
			if tick < f.firstOverflow {
				f.confirmed.AppendRow(f.win.rows.Row(j))
			} else {
				carried.AppendRow(f.win.rows.Row(j))
			}
		}
		f.win.reset()
		f.firstOverflow = -1
		f.stats.Passes++
		f.notePeak(int64(carried.Len()) * int64(f.dim) * 8)

		if err := f.replay(overflow, carried); err != nil {
			return nil, err
		}
	}
	// When nothing overflowed the window is the result, as it is BlockBNL's.
	out := f.win.rows
	if f.confirmed.Len() > 0 {
		f.confirmed.AppendBlock(out)
		out = f.confirmed
	}
	f.notePeak(0)
	return out, nil
}

// Close abandons the fold: it releases the window and closes and removes
// the overflow file, if one is open, so a fold dropped before Finish — a
// sibling failed, the job was cancelled — leaves nothing in the spill
// directory. Idempotent, a no-op after Finish; Absorb and Finish then fail.
func (f *BudgetedFold) Close() error {
	f.done = true
	if f.win != nil {
		f.win.publish()
		f.win = nil
	}
	if f.of == nil {
		return nil
	}
	name := f.of.Name()
	f.of.Close()
	f.of, f.ow = nil, nil
	return os.Remove(name)
}

// replay re-absorbs the carried window rows and then the overflow file's
// frames as the next pass's input, deleting the file when drained.
func (f *BudgetedFold) replay(overflow *os.File, carried *points.Block) error {
	name := overflow.Name()
	defer os.Remove(name)
	defer overflow.Close()
	for j := 0; j < carried.Len(); j++ {
		if err := f.absorbRow(carried.Row(j)); err != nil {
			return err
		}
	}
	if _, err := overflow.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("skyline: rewinding overflow: %w", err)
	}
	sr := sequencefile.NewReader(overflow)
	blk := points.NewBlock(f.dim, f.obufCap)
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("skyline: reading overflow: %w", err)
		}
		blk.Reset()
		if _, _, err := points.DecodeFrame(blk, rec.Value); err != nil {
			return fmt.Errorf("skyline: decoding overflow frame: %w", err)
		}
		n := blk.Len()
		for i := 0; i < n; i++ {
			if err := f.absorbRow(blk.Row(i)); err != nil {
				return err
			}
		}
		f.notePeak(int64(len(rec.Value)) + int64(n)*int64(f.dim)*8)
	}
}

// Stats reports the fold's pass count, overflow volume and peak memory.
// Valid after Finish.
func (f *BudgetedFold) Stats() FoldStats { return f.stats }

// PeakBytes and Passes are Stats' two engine-facing numbers as methods, so
// a *BudgetedFold is itself the MapReduce engine's streaming reduce state
// (mapreduce.FrameFold and FoldPeaker) with no adapter in between.
func (f *BudgetedFold) PeakBytes() int64 { return f.stats.PeakBytes }
func (f *BudgetedFold) Passes() int      { return f.stats.Passes }
