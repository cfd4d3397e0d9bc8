package skyjob

import (
	"context"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
)

// Distributed k-skyband job names.
const (
	SkybandPartitionJobName = "skyline/skyband-partition"
	SkybandMergeJobName     = "skyline/skyband-merge"
)

// skybandSpec extends Spec with the band width K; it is the band jobs'
// params on the wire.
type skybandSpec struct {
	Spec
	K int `json:"k"`
}

// ComputeSkyband runs the distributed two-job k-skyband on a live cluster:
// ComputeSpec's sequence over the band jobs, which are driver's two job
// definitions with skyline.Skyband(·, k) as their operator (see
// driver.ComputeSkyband for why that is sound). The master instantiates a
// job before it runs it, so a k below 1 comes back as the factory's error.
func ComputeSkyband(ctx context.Context, master *rpcmr.Master, data points.Set, scheme partition.Scheme, k, partitions, reducers int) (points.Set, error) {
	spec, err := SpecFor(data, scheme, partitions)
	if err != nil {
		return nil, err
	}
	res, err := compute(ctx, master, data, spec, skybandSpec{Spec: spec, K: k}, SkybandPartitionJobName, SkybandMergeJobName, reducers)
	if err != nil {
		return nil, err
	}
	return res.Skyline, nil
}
