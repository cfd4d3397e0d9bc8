package experiments

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/dataset"
	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/points"
)

// codecPrecisionBits fixes the measurement grid the codec rows are sealed
// on: coordinates snap to multiples of 2^-14 (~6.1e-5, four decimal digits
// of resolution in the unit cube — the precision real QoS feeds carry; the
// QWS dataset publishes 2-4 decimals per attribute). The grid is dyadic on
// purpose: round(v·2^14)/2^14 is exact in binary, so quantized mantissas
// keep >= 38 trailing zero bits, the structure fixed-point telemetry has
// when it lands in float64 and exactly what the XOR codec's trailing-zero
// encoding exploits. A decimal grid (multiples of 1e-4) would not: 1e-4 is
// not a binary fraction, so decimal-rounded floats still carry
// full-entropy low mantissa bits. The synthetic generators emit 52 random
// mantissa bits, which no lossless codec can shrink and no measured
// dataset exhibits. The throughput pair and the streamed run use those raw
// values — there the auto codec's job is only never to exceed v1.
const codecPrecisionBits = 14

// codecBytes seals blk in 4096-row frames under codec and returns the
// stream's bytes.
func codecBytes(blk *points.Block, codec points.FrameCodec) float64 {
	const frameRows = 4096
	var total int
	for lo := 0; lo < blk.Len(); lo += frameRows {
		total += len(points.AppendFrameCodec(nil, 0, blk.Slice(lo, min(lo+frameRows, blk.Len())), codec))
	}
	return float64(total)
}

// spill measures the out-of-core engine on its two acceptance axes. Codec
// rows seal the same blocks as v1 and as bit-packed v2 frames per
// benchmark distribution, on the measurement grid above: v2/v1 is gated at
// 0.7 on correlated and clustered data, and the wire's auto pick at v1 on
// all four. The streamed cells drive driver.ComputeStream over a dataset
// that exists only as a chunk recipe and then certify the result exactly
// (see certify), each with its reducer peak gated at its budget: stream_fits
// under the Budget reducer byte budget, which its local skylines fit, so
// no merge round is booked; stream under a budget below its local
// skylines, so the merge runs as one round of K budget-sized groups, each
// with the rows at or below its sums streamed past it. The
// round's candidate volume is reported against the Zhang & Zhang
// output-sensitive lower bound (Computing Skylines on Distributed Data:
// Ω(k) points must move), skyline size × d × 8 bytes.
func spill(ctx context.Context, sc Scale) ([]Row, error) {
	const d = 6
	var r rows
	for _, kind := range []dataset.Kind{dataset.KindCorrelated, dataset.KindClustered, dataset.KindIndependent, dataset.KindAnticorrelated} {
		blk := points.NewBlock(d, sc.CodecN)
		for _, p := range dataset.Generate(kind, sc.Seed, sc.CodecN, d) {
			for j := range p {
				p[j] = math.Round(p[j]*(1<<codecPrecisionBits)) / (1 << codecPrecisionBits)
			}
			blk.AppendRow(p)
		}
		v1, v2, auto := codecBytes(blk, points.FrameV1), codecBytes(blk, points.FrameV2), codecBytes(blk, points.FrameAuto)
		name := kind.String()
		r.add(name+"/v1_bytes", v1, "B")
		r.add(name+"/v2_bytes", v2, "B")
		r.gate(kind == dataset.KindCorrelated || kind == dataset.KindClustered, name+"/v2_ratio", v2/v1, "ratio", "lower", 0.7)
		r.gate(true, name+"/auto_ratio", auto/v1, "ratio", "lower", 1)
	}

	tmp, err := os.MkdirTemp("", "skybench-spill-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	tdata := dataset.Anticorrelated(sc.Seed, sc.ThroughputN, d)
	compute := func(opts driver.Options) func() error {
		return func() error {
			_, _, err := driver.Compute(ctx, tdata, opts)
			return err
		}
	}
	opts := driver.Options{Scheme: partition.Angular, Nodes: sc.Nodes}
	unbudgeted, err := best(sc.Runs, compute(opts))
	if err != nil {
		return nil, err
	}
	opts.SpillDir, opts.Codec, opts.ReducerBudgetBytes = tmp, points.FrameAuto, 64<<20
	budgeted, err := best(sc.Runs, compute(opts))
	if err != nil {
		return nil, err
	}
	r.add("throughput/unbudgeted_s", unbudgeted.Seconds(), "s")
	r.add("throughput/budgeted_64MiB_s", budgeted.Seconds(), "s")
	r.add("throughput/fraction", ratio(unbudgeted.Seconds(), budgeted.Seconds()), "ratio")

	// Independent keeps the streamed runs adversarial for the certificate:
	// its skyline is the largest of the four families at this d and never
	// collapses to duplicate ideal points the way correlated does.
	src, err := dataset.NewSource(dataset.KindIndependent, sc.Seed, sc.StreamN, d, 1<<17)
	if err != nil {
		return nil, err
	}
	// streamed runs one cell: driver.ComputeStream over src under o, its
	// result certified exact and its reducer peak gated at o's budget.
	streamed := func(name string, o driver.Options) (*driver.Stats, error) {
		var sky points.Set
		var stats *driver.Stats
		wall, err := best(1, func() (err error) {
			sky, stats, err = driver.ComputeStream(ctx, src, o)
			return err
		})
		if err != nil {
			return nil, err
		}
		exact, err := certify(src, sky)
		if err != nil {
			return nil, fmt.Errorf("certificate: %w", err)
		}
		r.add(name+"/n", float64(sc.StreamN), "points")
		r.add(name+"/wall_s", wall.Seconds(), "s")
		r.add(name+"/skyline", float64(len(sky)), "points")
		r.add(name+"/candidate_bytes", float64(stats.LocalSkylineTotal()*d*8), "B")
		r.gate(true, name+"/reducer_peak_bytes", float64(stats.ReducerPeakBytes), "B", "lower", float64(o.ReducerBudgetBytes))
		r.gate(true, name+"/oracle_exact", map[bool]float64{true: 1}[exact], "bool", "higher", 1)
		r.add(name+"/merge_passes", float64(stats.MergePasses), "passes")
		if len(stats.MergeRoundBytes) > 0 {
			r.add(name+"/bound_ratio", ratio(float64(stats.MergeRoundBytes[0]), float64(len(sky)*d*8)), "ratio")
		}
		return stats, nil
	}
	// Under the scale's budget the local skylines fit: no merge round is
	// booked.
	opts.ReducerBudgetBytes = sc.Budget
	fits, err := streamed("stream_fits", opts)
	if err != nil {
		return nil, err
	}
	r.gate(true, "stream_fits/merge_rounds", float64(fits.MergeRounds), "rounds", "lower", 0)

	// The merge round: 64 sectors (32 nodes) leave local skylines well
	// above the global one, and a budget of four fifths of them — measured
	// by a run under the scale's budget — is below the candidates, so the
	// merge is one round of K groups, each laid out within the budget with
	// the rows at or below its sums streamed past it.
	opts.Partitions = 64
	_, probe, err := driver.ComputeStream(ctx, src, opts)
	if err != nil {
		return nil, err
	}
	opts.ReducerBudgetBytes = int64(probe.LocalSkylineTotal()*d*8) * 4 / 5
	rounds, err := streamed("stream", opts)
	if err != nil {
		return nil, err
	}
	r.add("stream/budget_bytes", float64(opts.ReducerBudgetBytes), "B")
	r.add("stream/merge_groups", float64(rounds.MergeGroups), "groups")
	r.gate(true, "stream/merge_rounds", float64(rounds.MergeRounds), "rounds", "higher", 1)
	return r, nil
}

// certify streams the source once more and checks sky is exactly its
// skyline — an O(n·|SKY|) certificate that never materializes the input:
// every generated point dominated by or equal to a member, every member
// present in the input and undominated within sky. The check is set-exact:
// sky is deduplicated first, because BNL-family kernels keep duplicate
// copies of equal points. Members are scanned in ascending coordinate-sum
// order so dominated points exit after about one test.
func certify(src *dataset.Source, sky points.Set) (bool, error) {
	var members points.Set
	seen := make(map[string]bool, len(sky))
	for _, p := range sky {
		if k := points.Key(p); !seen[k] {
			seen[k] = true
			members = append(members, p)
		}
	}
	sum := func(p points.Point) (s float64) {
		for _, v := range p {
			s += v
		}
		return s
	}
	sort.Slice(members, func(i, j int) bool { return sum(members[i]) < sum(members[j]) })
	for _, a := range members {
		for _, b := range members {
			if points.Dominates(a, b) {
				return false, nil // sky is internally inconsistent
			}
		}
	}
	matched := make([]bool, len(members))
	exact := true
	err := src.Stream(func(blk *points.Block) error {
		for i := 0; i < blk.Len(); i++ {
			row := points.Point(blk.Row(i))
			covered := false
			for m, s := range members {
				if points.Dominates(s, row) {
					covered = true
					break
				}
				if s.Equal(row) {
					covered, matched[m] = true, true
					break
				}
			}
			exact = exact && covered
		}
		return nil
	})
	for _, m := range matched {
		exact = exact && m // a member never appeared in the input
	}
	return exact, err
}
