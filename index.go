package skymr

import (
	"context"
	"io"

	"repro/internal/driver"
)

// Index maintains a skyline incrementally as new services are published
// (paper §II): adding a service touches only its partition's local
// skyline, then re-merges the (small) union of local skylines — no full
// recompute over the registry. Safe for concurrent use.
type Index struct {
	ix *driver.Index
}

// BuildIndex computes the initial skyline of data and returns an Index
// ready for incremental additions. The partitioner is fitted to the
// initial data; later points outside its bounds remain correct (they are
// clamped into boundary partitions).
func BuildIndex(ctx context.Context, data Set, opts Options) (*Index, error) {
	dopts, err := opts.driverOptions()
	if err != nil {
		return nil, err
	}
	ix, err := driver.BuildIndex(ctx, data, dopts)
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix}, nil
}

// Add registers a new service. It returns the partition the service
// landed in and whether it entered the global skyline.
func (x *Index) Add(p Point) (partitionID int, inGlobal bool, err error) {
	return x.ix.Add(p)
}

// Global returns a copy of the current global skyline.
func (x *Index) Global() Set { return x.ix.Global() }

// Epoch returns the index's current version number; it advances by one
// per installed publish batch.
func (x *Index) Epoch() uint64 { return x.ix.Epoch() }

// LocalSkyline returns a copy of one partition's local skyline.
func (x *Index) LocalSkyline(id int) Set { return x.ix.LocalSkyline(id) }

// Size returns the total number of points retained across local skylines.
func (x *Index) Size() int { return x.ix.Size() }

// Save snapshots the index (partition-tagged local skylines in a
// checksummed container) so a service can restart without recomputing the
// skyline from the full catalogue.
func (x *Index) Save(w io.Writer) error { return x.ix.Save(w) }

// LoadIndex restores an index saved with Save. opts selects the
// partitioner for future additions (typically the options the index was
// built with).
func LoadIndex(ctx context.Context, r io.Reader, opts Options) (*Index, error) {
	dopts, err := opts.driverOptions()
	if err != nil {
		return nil, err
	}
	ix, err := driver.LoadIndex(ctx, r, dopts)
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix}, nil
}
