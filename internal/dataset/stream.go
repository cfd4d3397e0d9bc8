package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/mapreduce"
	"repro/internal/points"
)

// clusteredCentresK is the centre count the streaming clustered source
// uses, matching Generate's dispatch.
const clusteredCentresK = 5

// chunkSeedMix derives per-chunk RNG seeds (golden-ratio multiplier, the
// usual splitmix-style stream splitter).
const chunkSeedMix = 0x9E3779B97F4A7C15

// Source generates a synthetic dataset chunk by chunk without ever
// materializing it: a 10⁸-point anti-correlated input exists only as a
// recipe (kind, seed, n, d) until a chunk is asked for. Each chunk is
// produced by an independent RNG derived from the base seed and the
// chunk index, so chunks can be read in any order, re-read on task
// retry, and generated concurrently — the properties the out-of-core
// engine's ChunkSource contract needs. Source is the mapreduce.ChunkSource
// of the out-of-core jobs: a map task walks a chunk in pieces (WalkChunk),
// and ReadChunk materialises one whole, for oracles and replays.
//
// Because each chunk owns its own RNG stream, a Source's dataset is a
// deterministic function of (kind, seed, n, d, chunkSize) but is NOT
// the same point sequence Generate(kind, seed, n, d) yields: the
// streaming family splits the seed per chunk where Generate draws one
// sequential stream. Experiments pin one family or the other; golden
// values never mix them.
type Source struct {
	kind      Kind
	seed      int64
	n, d      int
	chunkSize int
	// centres is the shared prefix of the clustered distribution: drawn
	// once from the base seed so every chunk samples the same k centres.
	centres points.Set
}

// NewSource builds a streaming dataset recipe. chunkSize <= 0 defaults
// to 1<<16 points per chunk.
func NewSource(kind Kind, seed int64, n, d, chunkSize int) (*Source, error) {
	if n < 0 || d < 1 {
		return nil, fmt.Errorf("dataset: invalid shape n=%d d=%d", n, d)
	}
	if chunkSize <= 0 {
		chunkSize = 1 << 16
	}
	s := &Source{kind: kind, seed: seed, n: n, d: d, chunkSize: chunkSize}
	if kind == KindClustered {
		rng := rand.New(rand.NewSource(seed))
		s.centres = clusterCentres(rng, d, clusteredCentresK)
	}
	return s, nil
}

// N returns the total number of points the source describes.
func (s *Source) N() int { return s.n }

// Dim returns the dimensionality.
func (s *Source) Dim() int { return s.d }

// Kind returns the distribution.
func (s *Source) Kind() Kind { return s.kind }

// Chunks returns how many chunks cover the dataset.
func (s *Source) Chunks() int {
	if s.n == 0 {
		return 0
	}
	return (s.n + s.chunkSize - 1) / s.chunkSize
}

// ChunkLen returns the number of points in chunk i.
func (s *Source) ChunkLen(i int) int {
	lo := i * s.chunkSize
	hi := lo + s.chunkSize
	if hi > s.n {
		hi = s.n
	}
	return hi - lo
}

// chunkRNG returns chunk i's own RNG, which draws the chunk's rows in order,
// whether they are generated at once or piece by piece.
func (s *Source) chunkRNG(i int) (*rand.Rand, error) {
	if i < 0 || i >= s.Chunks() {
		return nil, fmt.Errorf("dataset: chunk %d out of range [0,%d)", i, s.Chunks())
	}
	return rand.New(rand.NewSource(s.seed ^ int64(uint64(i+1)*chunkSeedMix))), nil
}

// fill generates the next len(rows)/d rows of a chunk from its RNG, in place.
func (s *Source) fill(rng *rand.Rand, rows []float64) {
	for ; len(rows) > 0; rows = rows[s.d:] {
		row := rows[:s.d]
		switch s.kind {
		case KindCorrelated:
			fillCorrelated(rng, row)
		case KindAnticorrelated:
			fillAnticorrelated(rng, row)
		case KindClustered:
			fillClustered(rng, s.centres, row)
		default:
			fillIndependent(rng, row)
		}
	}
}

// ReadChunk appends chunk i's points to blk. It is pure in (s, i): any
// number of calls, in any order, from any goroutine (each call builds
// its own RNG), append the same rows. The rows are reserved once
// (points.Block.Extend) and generated in place: a block that carries a
// chunk's capacity is filled without allocating, a fresh one allocates it.
func (s *Source) ReadChunk(i int, blk *points.Block) error {
	rng, err := s.chunkRNG(i)
	if err != nil {
		return err
	}
	s.fill(rng, blk.Extend(s.d, s.ChunkLen(i)))
	return nil
}

// WalkChunk generates chunk i's points into blk a piece of at most
// mapreduce.WalkRows rows at a time, emptying blk before each piece, and
// calls fn with every piece: the mapreduce.ChunkSource walk. One RNG runs
// across the chunk's pieces, so they are ReadChunk's rows in ReadChunk's
// order, and like ReadChunk a walk is pure in (s, i). A block that carries
// a piece's capacity is filled without allocating.
func (s *Source) WalkChunk(i int, blk *points.Block, fn func(*points.Block) error) error {
	rng, err := s.chunkRNG(i)
	if err != nil {
		return err
	}
	for left := s.ChunkLen(i); left > 0; left -= mapreduce.WalkRows {
		blk.Clear()
		s.fill(rng, blk.Extend(s.d, min(left, mapreduce.WalkRows)))
		if err := fn(blk); err != nil {
			return err
		}
	}
	return nil
}

// Stream generates the dataset in chunk order, invoking fn once per
// chunk with a reused block — the zero-allocation path for sequential
// consumers (writers, samplers). fn must not retain the block.
func (s *Source) Stream(fn func(*points.Block) error) error {
	blk := points.NewBlock(s.d, s.chunkSize)
	for i := 0; i < s.Chunks(); i++ {
		blk.Reset()
		if err := s.ReadChunk(i, blk); err != nil {
			return err
		}
		if err := fn(blk); err != nil {
			return err
		}
	}
	return nil
}
