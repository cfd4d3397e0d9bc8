package skyjob

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
)

// Distributed k-skyband job names.
const (
	SkybandPartitionJobName = "skyline/skyband-partition"
	SkybandMergeJobName     = "skyline/skyband-merge"
)

// skybandSpec extends Spec with the band width K.
type skybandSpec struct {
	Spec
	K int `json:"k"`
}

func init() {
	rpcmr.RegisterJob(SkybandPartitionJobName, newSkybandPartitionJob)
	rpcmr.RegisterJob(SkybandMergeJobName, newSkybandMergeJob)
}

// kSkybandReducer keeps points of each group with fewer than k dominators
// within the group.
func kSkybandReducer(k int) mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(key string, values [][]byte, emit mapreduce.Emit) error {
		set := make(points.Set, 0, len(values))
		for _, v := range values {
			p, err := points.Decode(v)
			if err != nil {
				return err
			}
			set = append(set, p)
		}
		for i, p := range set {
			dominators := 0
			for j, q := range set {
				if i == j {
					continue
				}
				if points.DominatesOrEqual(q, p) && !q.Equal(p) {
					dominators++
					if dominators >= k {
						break
					}
				}
			}
			if dominators < k {
				emit(key, points.Encode(p))
			}
		}
		return nil
	})
}

func newSkybandPartitionJob(params []byte) (rpcmr.Job, error) {
	var spec skybandSpec
	if err := json.Unmarshal(params, &spec); err != nil {
		return rpcmr.Job{}, fmt.Errorf("skyjob: bad skyband params: %w", err)
	}
	if spec.K < 1 {
		return rpcmr.Job{}, fmt.Errorf("skyjob: skyband k = %d, need >= 1", spec.K)
	}
	part, err := spec.Build()
	if err != nil {
		return rpcmr.Job{}, err
	}
	return rpcmr.Job{
		Mapper: mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
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
		}),
		// No combiner: the local band must see the whole partition; a
		// per-map-task band would be sound but redundant (see the
		// in-process driver's skyband for the argument).
		Reducer: kSkybandReducer(spec.K),
	}, nil
}

func newSkybandMergeJob(params []byte) (rpcmr.Job, error) {
	var spec skybandSpec
	if err := json.Unmarshal(params, &spec); err != nil {
		return rpcmr.Job{}, fmt.Errorf("skyjob: bad skyband params: %w", err)
	}
	if spec.K < 1 {
		return rpcmr.Job{}, fmt.Errorf("skyjob: skyband k = %d, need >= 1", spec.K)
	}
	return rpcmr.Job{
		Mapper: mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
			emit("band", rec)
			return nil
		}),
		Reducer: kSkybandReducer(spec.K),
	}, nil
}

// ComputeSkyband runs the distributed two-job k-skyband on a live cluster.
func ComputeSkyband(ctx context.Context, master *rpcmr.Master, data points.Set, scheme partition.Scheme, k, partitions, reducers int) (points.Set, error) {
	if k < 1 {
		return nil, fmt.Errorf("skyjob: skyband k = %d, need >= 1", k)
	}
	base, err := SpecFor(data, scheme, partitions)
	if err != nil {
		return nil, err
	}
	params, err := json.Marshal(skybandSpec{Spec: base, K: k})
	if err != nil {
		return nil, err
	}
	input := make([][]byte, len(data))
	for i, p := range data {
		input[i] = points.Encode(p)
	}
	res1, err := master.Run(ctx, rpcmr.JobSpec{Name: SkybandPartitionJobName, Params: params, Reducers: reducers}, rpcmr.Records(input))
	if err != nil {
		return nil, fmt.Errorf("skyjob: skyband partitioning job: %w", err)
	}
	mergeInput := make([][]byte, len(res1.Pairs))
	for i, pair := range res1.Pairs {
		mergeInput[i] = pair.Value
	}
	res2, err := master.Run(ctx, rpcmr.JobSpec{Name: SkybandMergeJobName, Params: params, Reducers: 1}, rpcmr.Records(mergeInput))
	if err != nil {
		return nil, fmt.Errorf("skyjob: skyband merging job: %w", err)
	}
	band := make(points.Set, 0, len(res2.Pairs))
	for _, pair := range res2.Pairs {
		p, err := points.Decode(pair.Value)
		if err != nil {
			return nil, err
		}
		band = append(band, p)
	}
	return band, nil
}
