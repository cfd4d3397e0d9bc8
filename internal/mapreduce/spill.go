package mapreduce

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/points"
	"repro/internal/sequencefile"
	"repro/internal/telemetry"
)

// frameSpillFileName names one map task's spill run for one reducer.
func frameSpillFileName(cfg Config, task, reducer int) string {
	return filepath.Join(cfg.SpillDir, fmt.Sprintf("%s-m%05d-r%03d.fseq", cfg.Name, task, reducer))
}

// spillFrameStreams writes one map task's sealed frame streams to disk,
// one sequence file per non-empty reducer, one length-prefixed record
// per frame (empty key, frame bytes as the value) — whole frames, not
// per-point entries, so read-back is byte-identical to what was sealed.
// When a file fails part-way, the files the call has written are removed
// before the error is returned (writeFrameSpill removes the torn one):
// nothing else knows their names.
func spillFrameStreams(cfg Config, task int, streams [][]byte, counters *Counters) ([]string, error) {
	files := make([]string, len(streams))
	var spilled int64
	for r, stream := range streams {
		if len(stream) == 0 {
			continue
		}
		name := frameSpillFileName(cfg, task, r)
		size, err := writeFrameSpill(name, stream)
		if err != nil {
			removeFrameSpills([]frameTaskOutput{{files: files}})
			return nil, fmt.Errorf("mapreduce: %s: %w", cfg.Name, err)
		}
		files[r] = name
		counters.Add(CounterSpillBytes, size)
		spilled += size
	}
	if spilled > 0 {
		cfg.Events.Info("spill", telemetry.A("job", cfg.Name), telemetry.A("phase", "map"),
			telemetry.A("task", task), telemetry.A("bytes", spilled))
	}
	return files, nil
}

// writeFrameSpill writes one frame stream as the sequence file name and
// returns the file's size. A file it created and could not finish is removed.
func writeFrameSpill(name string, stream []byte) (size int64, err error) {
	f, err := os.Create(name)
	if err != nil {
		return 0, fmt.Errorf("creating frame spill: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			_ = os.Remove(name) // best effort: the write error is the one to report
		}
	}()
	w := sequencefile.NewWriter(f)
	for len(stream) > 0 {
		n, err := points.FrameLen(stream)
		if err != nil {
			return 0, fmt.Errorf("splitting frame stream: %w", err)
		}
		if err := w.Append(nil, stream[:n]); err != nil {
			return 0, fmt.Errorf("writing frame spill: %w", err)
		}
		stream = stream[n:]
	}
	if err := w.Flush(); err != nil {
		return 0, fmt.Errorf("flushing frame spill: %w", err)
	}
	if info, err := f.Stat(); err == nil {
		size = info.Size()
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("closing frame spill: %w", err)
	}
	return size, nil
}

// ErrSpillTruncated is returned (wrapped) when a spill file ends
// mid-record or fails a record checksum — a torn write or on-disk
// corruption. Callers distinguish it from plain I/O errors so a damaged
// spill is reported as data loss, not silently short-read.
var ErrSpillTruncated = errors.New("mapreduce: truncated or corrupt spill file")

// frameSpillReader streams frames out of one spill file one record at a
// time. Memory is bounded by the largest single frame (sequencefile's
// capped read-buffer growth bounds even that against forged lengths) —
// never by the file size, which is the point: reducers fold spill runs
// far larger than RAM through it.
type frameSpillReader struct {
	name string
	f    *os.File
	r    *sequencefile.Reader
}

// openFrameSpill opens one frame spill file for streaming reads.
func openFrameSpill(name string) (*frameSpillReader, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return &frameSpillReader{name: name, f: f, r: sequencefile.NewReader(f)}, nil
}

// Next returns the next spilled frame, io.EOF after the last one, or an
// error wrapping ErrSpillTruncated if the file ends mid-record or a
// record fails its checksum. The returned bytes are freshly allocated
// and owned by the caller.
func (r *frameSpillReader) Next() ([]byte, error) {
	rec, err := r.r.Next()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		if errors.Is(err, sequencefile.ErrCorrupt) {
			return nil, fmt.Errorf("%w: %s: %v", ErrSpillTruncated, r.name, err)
		}
		return nil, fmt.Errorf("mapreduce: reading frame spill %s: %w", r.name, err)
	}
	return rec.Value, nil
}

func (r *frameSpillReader) Close() error { return r.f.Close() }
