package memsys

import (
	"fmt"
	"math"
	"math/bits"
)

// This file implements the Mattson stack-distance pass over the stack
// machinery in stackdist.go, with SHARDS-style sampling: spatially-
// hashed sampling estimates the full miss-ratio curve from a small
// fraction of the references, with per-processor, invalidation-aware
// semantics. At rate 1 every line is tracked and the pass is exact —
// that is StackDistances.
//
// Spatial hashing (Waldspurger et al., SHARDS) samples LINES, not
// events: a line is tracked iff hash(line) < T, giving sampling rate
// R = T / 2^64. Because sampled-ness is a property of the line, every
// event on a sampled line is seen — including the writes by other
// processors that drive invalidations — so the coherence behaviour of
// the sampled subset is internally exact: holes, hole migration and
// the MESI write-invalidate rule from the exact pass apply unchanged
// to the sampled stacks.
//
// Distances scale by the inverse rate: a sampled stack distance d
// corresponds to an estimated true distance d/R, because the sampled
// stack holds an R-fraction of the resident lines. The histogram is
// accumulated directly in the estimated (true-distance) domain at
// index floor(d/R). For an integer capacity C, floor(d/R) ≥ C iff
// d/R ≥ C, so querying the estimated-domain histogram selects exactly
// the same samples as thresholding the raw sampled distances — and at
// R = 1 the index is d itself, which is what makes the rate-1 pass
// exact.
//
// Each sample carries weight 1/R (estimating R·N references from N
// samples). In fixed-rate mode R is constant, so the pass accumulates
// unit weights and divides by R at query time: at R = 1 every sum is
// an exact small integer and the division is by 1.0, preserving
// bit-identity. In adaptive mode (MaxTracked > 0, a la SHARDS-adj)
// the threshold shrinks whenever the tracked-line budget overflows —
// the maximum-hash line is evicted and T drops to its hash — so the
// weight 1/R_current is applied at accumulation time.
//
// Miss RATIOS use the exact reference count in the denominator: every
// event increments the per-processor read/write counters whether or
// not its line is sampled (this costs one hash and one compare per
// unsampled event, which is where the speedup over the exact pass
// comes from). Anchoring the denominator exactly has the same effect
// as the SHARDS-adj histogram correction — the residual mass that
// correction would add to the always-hit bucket never reaches any
// miss sum here, because misses are summed from the capacity up.
//
// Confidence bands come from jackknifing over 16 hash strata: the low
// four bits of the line hash partition the sampled lines into 16
// independent sub-samples, each stratum accumulates its own miss-
// weight histogram, and the leave-one-out variance of the 16 stratum
// aggregates yields a standard error for the estimated miss ratio at
// every capacity. The construction is deterministic — no RNG — so a
// fixed seed gives byte-identical profiles across runs and GOMAXPROCS
// settings. When the effective rate is 1 the pass is exact and the
// band collapses to zero width; a fixed-rate pass at rate 1 therefore
// keeps no strata at all.
//
// Spatial sampling is blind below a granularity of 1/R lines: a
// sampled distance of d can only assert the true distance lies near
// d/R, so capacities under a few multiples of 1/R lines would be
// answered from the indistinguishable-from-zero pile and biased low.
// The estimator therefore carries an EXACT small-capacity window
// (ExactLines): a per-processor circular buffer holding the true top-W
// slots of the full Mattson stack — lines and invalidation holes, in
// exact recency order. Every event (sampled or not) updates the
// window with the same three rules as the full stack (insert consumes
// the topmost hole; a re-reference with a hole above migrates the
// topmost hole down to its old slot; otherwise the slot closes), and
// each rule maps to a bounded shift of the buffer because entries
// below the touched slot never move: the slot-close shift up and the
// front-insert shift down cancel. The window's hit histogram is
// therefore exact for every depth < W, and capacities ≤ W·lineSize
// are answered exactly as refs − hits — no sampling error at all —
// while larger capacities use the SHARDS estimate, whose granularity
// 1/R is by then a small fraction of the capacity.
//
// One documented approximation in adaptive mode: evicting a tracked
// line removes its resident stack entries but not any invalidation
// holes it left earlier (holes carry no line identity once pushed, and
// may since have migrated or been consumed). Stale holes inflate later
// depths by at most the number of sampled invalidations between
// threshold drops; with no evictions (fixed-rate mode, or a budget
// that never overflows) the sampled pass has no such term. The exact
// window is unaffected — it never samples.

// SampledOptions configures a sampled stack-distance pass.
type SampledOptions struct {
	// Rate is the spatial sampling rate in (0, 1]: a line is tracked iff
	// hash(line, Seed) falls below Rate·2^64. Rate 1 tracks every line:
	// the exact pass StackDistances runs.
	Rate float64
	// Seed perturbs the line hash, choosing an independent sampled
	// subset. The pass is deterministic for a fixed seed.
	Seed uint64
	// MaxTracked, when positive, bounds the number of distinct tracked
	// lines (SHARDS-adj): on overflow the maximum-hash line is evicted
	// and the threshold drops to its hash, so memory stays fixed while
	// the effective rate adapts downward. Zero means fixed-rate mode.
	MaxTracked int
	// ExactLines, when positive, answers capacities up to
	// ExactLines·lineSize exactly from a top-W stack window updated on
	// every reference — spatial sampling cannot resolve distances below
	// ~1/Rate lines, so small caches come from the window instead.
	// Rounded up to a power of two. DefaultExactLines is a good choice;
	// zero disables the window (pure SHARDS).
	ExactLines int
}

// DefaultExactLines is the exact-window depth the engine uses: 512
// lines (32 KB of 64-byte lines) keeps every sweep point at or below
// 32 KB exact, and is ≥ 5/R lines at 1% sampling, past the region
// where the SHARDS distance granularity matters.
const DefaultExactLines = 512

// sampleStrata is the number of hash strata the confidence bands
// jackknife over: the low log2(sampleStrata) bits of the line hash
// assign each sampled line to one stratum.
const sampleStrata = 16

// sampleHash is the spatial sampling hash: splitmix64's finalizer over
// the line number, offset by the seed. Uniform enough that the
// threshold test realizes the configured rate and the low bits stratify
// independently of it.
func sampleHash(line, seed uint64) uint64 {
	z := line + seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// sampledCounts accumulates one processor's view of the sampled stream.
type sampledCounts struct {
	// reads and writes are exact: counted for every reference, sampled
	// or not, so estimated miss ratios have an exact denominator.
	reads, writes uint64
	// cold and coherence are weighted sample counts of first-touch and
	// invalidated-copy references among the sampled lines.
	cold, coherence float64
	// hist[d] is the weighted count of sampled re-references whose
	// estimated true stack depth is d; hist[maxLines] aggregates depths
	// ≥ maxLines, which miss at every answerable capacity.
	hist []float64
}

// sampleEntry is one tracked line in the adaptive-mode eviction heap.
type sampleEntry struct {
	hash uint64
	line uint64
}

// sampleHeap is a max-heap of tracked lines ordered by hash, so the
// adaptive mode can evict the maximum-hash line on budget overflow.
type sampleHeap []sampleEntry

func (h *sampleHeap) push(v sampleEntry) {
	s := append(*h, v)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].hash >= s[i].hash {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

func (h *sampleHeap) popMax() sampleEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	i := 0
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < len(s) && s[l].hash > s[big].hash {
			big = l
		}
		if r < len(s) && s[r].hash > s[big].hash {
			big = r
		}
		if big == i {
			break
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
	*h = s
	return top
}

// winHole marks an invalidation hole occupying an exact-window slot.
const winHole = ^uint64(0)

// exactWindow is one processor's view of the true top-W slots of its
// Mattson stack: a circular buffer of line numbers and holes in exact
// recency order, plus the exact hit histogram for depths < W. The
// buffer length is a power of two ≥ W so position arithmetic is a
// mask; logical occupancy is capped at W.
type exactWindow struct {
	win   []uint64 // circular: win[(head+depth)&mask]
	mask  int
	head  int
	n     int      // occupied slots (lines + holes), ≤ W
	w     int      // logical capacity
	holes int      // holes among the occupied slots
	hist  []uint64 // hist[d]: exact hits at depth d (d slots above)
}

func newExactWindow(w int) *exactWindow {
	capPow := 1
	for capPow < w {
		capPow <<= 1
	}
	return &exactWindow{win: make([]uint64, capPow), mask: capPow - 1, w: capPow, hist: make([]uint64, capPow)}
}

func (ew *exactWindow) at(d int) uint64     { return ew.win[(ew.head+d)&ew.mask] }
func (ew *exactWindow) set(d int, v uint64) { ew.win[(ew.head+d)&ew.mask] = v }

// find returns the depth of the given slot value (a line known to be
// resident, or winHole with holes > 0).
func (ew *exactWindow) find(v uint64) int {
	for d := 0; d < ew.n; d++ {
		if ew.at(d) == v {
			return d
		}
	}
	// Unreachable while the caller's presence bitset and hole count are
	// consistent with the buffer; returning n makes a violation loud
	// (callers would index hist out of range) instead of silent.
	return ew.n
}

// removeAt deletes the slot at depth d by shifting the slots above it
// down one — entries below d never move, which is exactly why every
// stack rule is a bounded local edit here.
func (ew *exactWindow) removeAt(d int) {
	for ; d > 0; d-- {
		ew.set(d, ew.at(d-1))
	}
	ew.head = (ew.head + 1) & ew.mask
	ew.n--
}

// pushFront makes the given value the most recent slot.
func (ew *exactWindow) pushFront(v uint64) {
	ew.head = (ew.head - 1) & ew.mask
	ew.win[ew.head] = v
	ew.n++
}

// reference handles a re-reference of a resident line: the exact hit
// is recorded at its depth and the line moves to the front under the
// hole rules of the full stack. The whole update is one carry walk —
// the line is written at depth 0 and each slot above the old one
// shifts down a step as the walk passes — so a hit at depth d costs
// exactly d+1 slot writes (the separate find-then-shift formulation
// costs twice that, and this loop is the sampler's hot path). When the
// walk crosses a hole first, the hole is where the shifting stops
// (entries between the hole and the line keep their depths) and the
// line's old slot becomes the migrated hole — the same net edit as the
// full stack's hole-migration rule.
func (ew *exactWindow) reference(line uint64) {
	head, mask, win := ew.head, ew.mask, ew.win
	carry, shifting := line, true
	for d := 0; d < ew.n; d++ {
		idx := (head + d) & mask
		cur := win[idx]
		if cur == line {
			if shifting {
				win[idx] = carry
			} else {
				win[idx] = winHole
			}
			ew.hist[d]++
			return
		}
		if shifting {
			win[idx] = carry
			if cur == winHole {
				shifting = false
			} else {
				carry = cur
			}
		}
	}
	// Unreachable while the caller's presence bitset is consistent with
	// the buffer; falling through leaves the histogram untouched so a
	// violation shows up as a count mismatch, not memory corruption.
}

// insert admits a line not currently resident (cold, invalidated, or
// deeper than the window). It returns the line pushed out of the
// bottom slot, if any, so the caller can clear its presence bit. The
// hole-consuming branch is the same carry walk as reference: the line
// lands at depth 0, everything above the topmost hole shifts down one,
// and the hole itself is overwritten — occupancy is unchanged.
func (ew *exactWindow) insert(line uint64) (dropped uint64, ok bool) {
	if ew.holes > 0 {
		head, mask, win := ew.head, ew.mask, ew.win
		carry := line
		for d := 0; d < ew.n; d++ {
			idx := (head + d) & mask
			cur := win[idx]
			win[idx] = carry
			if cur == winHole {
				ew.holes--
				return 0, false
			}
			carry = cur
		}
	}
	if ew.n == ew.w {
		// The window is full of real lines (a hole would have been
		// consumed above): the bottom one leaves, and pushFront reuses
		// its freed slot — no shifting.
		tail := ew.at(ew.n - 1)
		ew.n--
		ew.pushFront(line)
		return tail, true
	}
	ew.pushFront(line)
	return 0, false
}

// invalidate turns the line's slot into a hole (MESI write by another
// processor); the slot keeps its position, so deeper depths still
// count it.
func (ew *exactWindow) invalidate(line uint64) {
	head, mask, win := ew.head, ew.mask, ew.win
	for d := 0; d < ew.n; d++ {
		idx := (head + d) & mask
		if win[idx] == line {
			win[idx] = winHole
			ew.holes++
			return
		}
	}
}

// SampledProfile is the result of one sampled stack-distance pass:
// exact per-processor reference counts, weighted distance histograms,
// and per-stratum aggregates from which the estimated miss count of a
// fully-associative LRU cache of any profiled size — and a 95%
// confidence band on its miss ratio — follow in O(maxLines) per query.
type SampledProfile struct {
	lineSize int
	maxLines int
	// rate is the effective sampling rate at the end of the pass: the
	// configured rate in fixed mode, the final (possibly lowered)
	// threshold's rate in adaptive mode.
	rate float64
	// exact flags a pass that tracked every line (rate 1, or an adaptive
	// budget that never overflowed): estimates are exact counts and
	// bands collapse.
	exact bool
	// scaleDiv divides every weighted sum at query time: the fixed-mode
	// rate (samples carry unit weight), or 1 in adaptive mode (weights
	// were applied at accumulation time).
	scaleDiv    float64
	sampledRefs uint64
	procs       []sampledCounts
	// exactLines is the depth of the exact top-W window (0 when
	// disabled): capacities up to exactLines·lineSize are answered
	// exactly from wins[p].hist, with zero-width bands.
	exactLines int
	wins       []*exactWindow
	// strataMiss[k] accumulates stratum k's always-miss weight (cold +
	// coherence); strataHist[k] its estimated-depth histogram. Aggregate
	// across processors — the bands cover the aggregate miss ratio.
	// Unused (nil histograms) in a fixed-rate pass at rate 1.
	strataMiss [sampleStrata]float64
	strataHist [sampleStrata][]float64
}

// SampledStackDistances runs the sampled one-pass simulation of the
// stream at the given line size. The profile answers any cache size
// from lineSize up to maxCacheSize with an estimated miss count and a
// jackknife confidence band. Measurement-reset markers zero the
// counters while leaving every stack warm, exactly like the exact
// pass. The stream is consumed block by block, so a TraceFile profiles
// out of core; the pass is deterministic for a fixed seed.
func SampledStackDistances(src TraceSource, lineSize, maxCacheSize int, opt SampledOptions) (*SampledProfile, error) {
	if lineSize < WordBytes || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("memsys: line size must be a power of two ≥ %d, got %d", WordBytes, lineSize)
	}
	if maxCacheSize < lineSize {
		return nil, fmt.Errorf("memsys: max cache size %d smaller than line size %d", maxCacheSize, lineSize)
	}
	if opt.Rate <= 0 || opt.Rate > 1 || math.IsNaN(opt.Rate) {
		return nil, fmt.Errorf("memsys: sampling rate must be in (0, 1], got %v", opt.Rate)
	}
	if opt.MaxTracked < 0 {
		return nil, fmt.Errorf("memsys: MaxTracked must be ≥ 0, got %d", opt.MaxTracked)
	}
	if opt.ExactLines < 0 {
		return nil, fmt.Errorf("memsys: ExactLines must be ≥ 0, got %d", opt.ExactLines)
	}
	shift := uint(bits.TrailingZeros(uint(lineSize)))
	maxLines := maxCacheSize / lineSize

	meta := src.Meta()
	nproc := meta.MaxProc + 1
	if nproc > 64 {
		return nil, fmt.Errorf("memsys: at most 64 processors supported (sharer bitset), trace has %d", nproc)
	}
	lines := uint64(meta.MaxAddr)>>shift + 1

	adaptive := opt.MaxTracked > 0
	// all short-circuits the hash test when every line is tracked; it can
	// only be revoked by an adaptive threshold drop.
	all := opt.Rate >= 1
	threshold := ^uint64(0)
	if !all {
		threshold = uint64(opt.Rate * 0x1p64)
		if threshold == 0 {
			threshold = 1
		}
	}

	// A fixed-rate pass at rate 1 can never leave the exact state, so
	// its bands are zero-width and the strata would go unread.
	strata := adaptive || !all

	sp := &SampledProfile{lineSize: lineSize, maxLines: maxLines, procs: make([]sampledCounts, nproc)}
	if strata {
		for k := range sp.strataHist {
			sp.strataHist[k] = make([]float64, maxLines+1)
		}
	}
	var wins []*exactWindow
	var winHolders []uint64
	if opt.ExactLines > 0 {
		wins = make([]*exactWindow, nproc)
		for p := range wins {
			wins[p] = newExactWindow(opt.ExactLines)
		}
		winHolders = make([]uint64, lines) // line -> bitset of procs holding it in-window
		sp.wins = wins
		sp.exactLines = wins[0].w
	}
	stacks := make([]sdStack, nproc)
	for p := 0; p < nproc; p++ {
		l := make([]int64, lines)
		for i := range l {
			l[i] = slotNever
		}
		// A processor's slot clock never passes its reference count, so a
		// short stream needs no more tree than that.
		var refs uint64
		if p < len(meta.ProcRefs) {
			refs = meta.ProcRefs[p]
		}
		capHint := int(refs) + 1
		if refs >= sdInitialCap {
			capHint = sdInitialCap
		}
		stacks[p] = sdStack{tree: make(fenwick, capHint), last: l}
		sp.procs[p].hist = make([]float64, maxLines+1)
	}
	holders := make([]uint64, lines) // line -> bitset of stack-resident procs

	// Adaptive-mode state: which lines have entered the tracked set, and
	// the max-hash eviction heap over them.
	var entered []uint64
	var heap sampleHeap
	tracked := 0
	if adaptive {
		entered = make([]uint64, (lines+63)/64)
	}

	// evictLine removes a tracked line's resident stack entries (its
	// sampled-set membership ends; stale invalidation holes remain, see
	// file comment).
	evictLine := func(line uint64) {
		for rem := holders[line]; rem != 0; rem &= rem - 1 {
			q := bits.TrailingZeros64(rem)
			st := &stacks[q]
			st.tree.add(int(st.last[line]), -1)
			st.last[line] = slotNever
		}
		holders[line] = 0
	}

	err := src.blocks(func(events []uint64) error {
		for _, e := range events {
			if e == resetMarker {
				for p := range sp.procs {
					c := &sp.procs[p]
					c.reads, c.writes, c.cold, c.coherence = 0, 0, 0, 0
					for i := range c.hist {
						c.hist[i] = 0
					}
				}
				for _, ew := range wins {
					for i := range ew.hist {
						ew.hist[i] = 0
					}
				}
				for k := range sp.strataHist {
					sp.strataMiss[k] = 0
					for i := range sp.strataHist[k] {
						sp.strataHist[k][i] = 0
					}
				}
				sp.sampledRefs = 0
				continue
			}
			p := int(e >> 1 & 0x7f)
			line := (e >> 8) >> shift
			// These fire only for streams whose index footer understates
			// the ranges the blocks actually use (a lying or corrupt v2
			// file); an in-memory trace's meta is exact.
			if p >= nproc {
				return fmt.Errorf("memsys: corrupt trace: processor %d beyond declared maximum %d", p, meta.MaxProc)
			}
			if line >= lines {
				return fmt.Errorf("memsys: corrupt trace: address %#x beyond declared maximum %#x", e>>8, uint64(meta.MaxAddr))
			}
			write := e&1 == 1

			c := &sp.procs[p]
			if write {
				c.writes++
			} else {
				c.reads++
			}

			// Exact small-capacity window: every event updates the true
			// top-W stack slots; an unsampled event's full cost is this
			// plus the counters above and the hash-and-compare below.
			if wins != nil {
				ew := wins[p]
				if winHolders[line]>>uint(p)&1 == 1 {
					ew.reference(line)
				} else {
					if dropped, ok := ew.insert(line); ok {
						winHolders[dropped] &^= 1 << uint(p)
					}
					winHolders[line] |= 1 << uint(p)
				}
				if write {
					for rem := winHolders[line] &^ (1 << uint(p)); rem != 0; rem &= rem - 1 {
						wins[bits.TrailingZeros64(rem)].invalidate(line)
					}
					winHolders[line] = 1 << uint(p)
				}
			}

			// The spatial sampling gate: unsampled events cost exactly the
			// counter increments above plus this hash and compare.
			var z uint64
			if !all {
				z = sampleHash(line, opt.Seed)
				if z >= threshold {
					continue
				}
			} else if adaptive {
				z = sampleHash(line, opt.Seed)
			}
			if adaptive && entered[line>>6]&(1<<(line&63)) == 0 {
				entered[line>>6] |= 1 << (line & 63)
				heap.push(sampleEntry{hash: z, line: line})
				tracked++
				if tracked > opt.MaxTracked {
					// Budget overflow: evict the maximum-hash line and drop
					// the threshold to its hash (then any equal-hash peers).
					top := heap.popMax()
					threshold = top.hash
					all = false
					evictLine(top.line)
					tracked--
					for len(heap) > 0 && heap[0].hash >= threshold {
						top = heap.popMax()
						evictLine(top.line)
						tracked--
					}
					if z >= threshold {
						continue // the triggering line was itself evicted
					}
				}
			}
			sp.sampledRefs++

			// Weight and stratum of this sample under the current rate
			// (unit weight while every line is still tracked).
			w := 1.0
			if adaptive && !all {
				w = 0x1p64 / float64(threshold)
			}
			k := int(z & (sampleStrata - 1))

			st := &stacks[p]
			slot := st.last[line]
			st.ensureSlot()
			st.clock++
			now := st.clock
			switch slot {
			case slotNever, slotInval:
				if slot == slotNever {
					c.cold += w
				} else {
					c.coherence += w
				}
				if strata {
					sp.strataMiss[k] += w
				}
				if len(st.holes) > 0 {
					st.tree.add(st.holes.popMax(), -1)
				}
			default:
				cur := int(st.last[line])
				d := int(st.tree.sum(now-1) - st.tree.sum(cur))
				// Scale the sampled depth to the estimated true-distance
				// domain: floor(d·2^64/threshold) = floor(d/rate), computed
				// in integers so the pass is exactly reproducible. With
				// every line tracked the depth is already true.
				dEst := d
				if !all {
					if uint64(d) >= threshold {
						dEst = maxLines
					} else {
						q, _ := bits.Div64(uint64(d), 0, threshold)
						if q >= uint64(maxLines) {
							dEst = maxLines
						} else {
							dEst = int(q)
						}
					}
				}
				if dEst > maxLines {
					dEst = maxLines
				}
				c.hist[dEst] += w
				if strata {
					sp.strataHist[k][dEst] += w
				}
				if len(st.holes) > 0 && st.holes[0] > cur {
					st.tree.add(st.holes.popMax(), -1)
					st.holes.push(cur)
				} else {
					st.tree.add(cur, -1)
				}
			}
			st.tree.add(now, 1)
			st.last[line] = int64(now)
			holders[line] |= 1 << uint(p)

			if write {
				// Illinois-MESI write-invalidate, restricted to the sampled
				// subset: every event on a sampled line is seen (sampling is
				// per line), so the invalidation pattern within the subset
				// matches the exact pass reference for reference.
				for rem := holders[line] &^ (1 << uint(p)); rem != 0; rem &= rem - 1 {
					q := bits.TrailingZeros64(rem)
					stacks[q].holes.push(int(stacks[q].last[line]))
					stacks[q].last[line] = slotInval
				}
				holders[line] = 1 << uint(p)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A pass that never stopped tracking every line is exact, whether the
	// budget was unlimited or simply never overflowed.
	sp.exact = all
	if all {
		sp.rate = 1
	} else {
		sp.rate = float64(threshold) * 0x1p-64
	}
	if adaptive || all {
		sp.scaleDiv = 1
	} else {
		sp.scaleDiv = sp.rate
	}
	return sp, nil
}

// LineSize returns the line size the profile was built at.
func (sp *SampledProfile) LineSize() int { return sp.lineSize }

// MaxCacheSize returns the largest answerable cache size in bytes.
func (sp *SampledProfile) MaxCacheSize() int { return sp.maxLines * sp.lineSize }

// Procs returns the number of processors in the profiled trace.
func (sp *SampledProfile) Procs() int { return len(sp.procs) }

// Rate returns the effective sampling rate at the end of the pass: the
// configured rate in fixed mode, or the final adapted rate when a
// MaxTracked budget forced the threshold down.
func (sp *SampledProfile) Rate() float64 { return sp.rate }

// Exact reports whether the pass tracked every line (rate 1, or an
// adaptive budget that never overflowed), making every estimate an
// exact count.
func (sp *SampledProfile) Exact() bool { return sp.exact }

// Refs returns the exact total reference count since the last reset
// marker — every event is counted, sampled or not.
func (sp *SampledProfile) Refs() uint64 {
	var n uint64
	for i := range sp.procs {
		n += sp.procs[i].reads + sp.procs[i].writes
	}
	return n
}

// SampledRefs returns how many references actually entered the sampled
// stacks since the last reset marker.
func (sp *SampledProfile) SampledRefs() uint64 { return sp.sampledRefs }

// capacityLines validates a queried cache size and converts it to lines.
func (sp *SampledProfile) capacityLines(cacheSize int) (int, error) {
	if cacheSize < sp.lineSize || cacheSize%sp.lineSize != 0 {
		return 0, fmt.Errorf("memsys: cache size %d not a positive multiple of line size %d", cacheSize, sp.lineSize)
	}
	c := cacheSize / sp.lineSize
	if c > sp.maxLines {
		return 0, fmt.Errorf("memsys: cache size %d exceeds profiled maximum %d", cacheSize, sp.MaxCacheSize())
	}
	return c, nil
}

// ExactLines returns the depth of the exact small-capacity window in
// lines; capacities up to ExactLines·LineSize carry no sampling error.
// Zero means the window is disabled.
func (sp *SampledProfile) ExactLines() int { return sp.exactLines }

// EstProcMisses returns processor p's estimated miss count in a fully-
// associative LRU cache of the given size. At rate 1, or for capacities
// within the exact window, the estimate is the exact count.
func (sp *SampledProfile) EstProcMisses(p, cacheSize int) (float64, error) {
	capLines, err := sp.capacityLines(cacheSize)
	if err != nil {
		return 0, err
	}
	c := &sp.procs[p]
	if capLines <= sp.exactLines {
		// Within the exact window: misses = refs − exact hits above the
		// capacity depth. Integer arithmetic throughout — no estimate.
		hits := uint64(0)
		h := sp.wins[p].hist
		for d := 0; d < capLines; d++ {
			hits += h[d]
		}
		return float64(c.reads + c.writes - hits), nil
	}
	m := c.cold + c.coherence
	for d := capLines; d <= sp.maxLines; d++ {
		m += c.hist[d]
	}
	return m / sp.scaleDiv, nil
}

// EstMisses returns the estimated total miss count across processors
// for a fully-associative LRU cache of the given size.
func (sp *SampledProfile) EstMisses(cacheSize int) (float64, error) {
	var total float64
	for p := range sp.procs {
		m, err := sp.EstProcMisses(p, cacheSize)
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total, nil
}

// EstMissRate returns the estimated misses per reference for a fully-
// associative LRU cache of the given size. The denominator is the
// exact reference count, so at rate 1 the result is the exact miss
// ratio.
func (sp *SampledProfile) EstMissRate(cacheSize int) (float64, error) {
	misses, err := sp.EstMisses(cacheSize)
	if err != nil {
		return 0, err
	}
	refs := sp.Refs()
	if refs == 0 {
		return 0, nil
	}
	return misses / float64(refs), nil
}

// Band returns a 95% confidence interval for the aggregate miss ratio
// at the given cache size, from a jackknife over the hash strata. An
// exact pass (rate 1) returns a zero-width band at the estimate. The
// band is clamped to [0, 1].
func (sp *SampledProfile) Band(cacheSize int) (lo, hi float64, err error) {
	capLines, err := sp.capacityLines(cacheSize)
	if err != nil {
		return 0, 0, err
	}
	est, err := sp.EstMissRate(cacheSize)
	if err != nil {
		return 0, 0, err
	}
	if sp.exact || capLines <= sp.exactLines {
		return est, est, nil
	}
	refs := sp.Refs()
	if refs == 0 {
		return 0, 0, nil
	}
	// Per-stratum aggregate miss weight at this capacity, and the
	// leave-one-out estimates it induces.
	const n = float64(sampleStrata)
	var m [sampleStrata]float64
	var total float64
	for k := range m {
		s := sp.strataMiss[k]
		h := sp.strataHist[k]
		for d := capLines; d <= sp.maxLines; d++ {
			s += h[d]
		}
		s /= sp.scaleDiv
		m[k] = s
		total += s
	}
	var loo [sampleStrata]float64
	var mean float64
	for k := range m {
		loo[k] = (total - m[k]) * n / (n - 1) / float64(refs)
		mean += loo[k]
	}
	mean /= n
	var ss float64
	for k := range loo {
		d := loo[k] - mean
		ss += d * d
	}
	se := math.Sqrt((n - 1) / n * ss)
	lo = est - 1.96*se
	hi = est + 1.96*se
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}
