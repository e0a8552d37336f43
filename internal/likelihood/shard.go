package likelihood

// Reduction grouping: every pattern-dimension sum — the edge
// log-likelihood, the Newton first/second derivatives, and the guard's
// log-ratio gain — accumulates one partial per shard, a fixed contiguous
// pattern range, and the caller adds the partials in shard order. The
// layout is a pure function of the data (pattern count and rate-class
// blocks), so the summation grouping, and with it every float64 bit, is
// too. Shard cut points sit on the real pattern axis, at the same
// `s*npat/n` boundaries as the pre-SoA engine, so the padded layout
// changes where patterns live in memory but not how sums group.
//
// Shards run one after another on the calling goroutine. Element-wise
// kernels (combines, the sumtable build, per-site values) do not depend
// on grouping and walk the rate-class blocks directly. The work
// distribution that pays sits one level up, in whole tree evaluations
// handed to worker processes (DESIGN.md §5d).

const (
	// minShardPatterns is the smallest pattern range worth a shard; tiny
	// data sets stay single-sharded.
	minShardPatterns = 64
	// maxShards bounds the layout.
	maxShards = 16
)

// shardSeg is a run of patterns within one rate-class block, so kernels
// still hoist the transition-matrix lookup out of the pattern loop. lo/hi
// index the real (permuted) pattern axis; plo is where the run starts on
// the padded axis the SoA lanes are laid out on.
type shardSeg struct {
	ci     int // rate class index
	lo, hi int // permuted pattern index range [lo, hi)
	plo    int // padded start index of this run
}

// shard is one contiguous pattern range, pre-cut into class segments.
type shard struct {
	segs []shardSeg
}

// buildShards cuts [0, npat) into near-equal contiguous ranges aligned
// with the class blocks: a shard boundary inside a block splits it into
// segments that each stay within one class.
func buildShards(blocks []classBlock, npat int) []shard {
	n := npat / minShardPatterns
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	shards := make([]shard, n)
	for s := 0; s < n; s++ {
		lo, hi := s*npat/n, (s+1)*npat/n
		for _, blk := range blocks {
			slo, shi := max(lo, blk.lo), min(hi, blk.hi)
			if slo < shi {
				shards[s].segs = append(shards[s].segs, shardSeg{
					ci: blk.ci, lo: slo, hi: shi, plo: blk.plo + (slo - blk.lo),
				})
			}
		}
	}
	return shards
}
