// Package jaccard implements Jaccard distance over sorted integer sets and
// the Jaccard-median algorithms the paper builds on (Chierichetti, Kumar,
// Pandey & Vassilvitskii, SODA 2010).
//
// A set is a strictly increasing []int32. All cascades produced by this
// library satisfy that representation, which makes the distance computations
// simple linear merges.
//
// Three median algorithms are provided:
//
//   - Exact: exhaustive search over subsets of the union universe. Only
//     feasible for tiny instances; used as ground truth in tests.
//   - Prefix: the practical algorithm of [CKPV10] §3.2 — order elements by
//     occurrence frequency and return the best frequency prefix. It achieves
//     a 1+O(ε) factor (ε = optimal cost) in Õ(k + Σ|S_i|) time and is the
//     algorithm the paper runs (§4).
//   - Majority: keep every element appearing in at least half the sets; cost
//     at most ε + O(ε^{3/2}) [CKPV10]. Used by the paper's argument that a
//     seed set's typical cascade contains the members' typical cascades.
package jaccard

import (
	"slices"
	"sort"
)

// Set is a strictly increasing slice of element ids.
type Set = []int32

// Distance returns the Jaccard distance d_J(a,b) = 1 - |a∩b| / |a∪b|.
// The distance of two empty sets is 0.
func Distance(a, b Set) float64 {
	inter := IntersectSize(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// IntersectSize returns |a ∩ b| for sorted sets.
func IntersectSize(a, b Set) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// UnionSize returns |a ∪ b| for sorted sets.
func UnionSize(a, b Set) int {
	return len(a) + len(b) - IntersectSize(a, b)
}

// SymmDiffSize returns |a ⊕ b| for sorted sets.
func SymmDiffSize(a, b Set) int {
	return len(a) + len(b) - 2*IntersectSize(a, b)
}

// Union returns the sorted union of two sorted sets.
func Union(a, b Set) Set {
	out := make(Set, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Contains reports whether sorted set s contains v.
func Contains(s Set, v int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// IsSorted reports whether s is a valid Set (strictly increasing).
func IsSorted(s Set) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// MeanDistance returns the average Jaccard distance from candidate to the
// given sets (the empirical cost ρ̃ of the paper). It returns 0 for an empty
// collection.
func MeanDistance(candidate Set, sets []Set) float64 {
	if len(sets) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range sets {
		total += Distance(candidate, s)
	}
	return total / float64(len(sets))
}

// Median is the result of a median computation.
type Median struct {
	// Set is the selected median.
	Set Set
	// Cost is its average Jaccard distance to the input sets.
	Cost float64
	// Evals counts the candidate medians whose cost the algorithm evaluated
	// (for Prefix the empty prefix plus the prefixes scanned before its
	// early exit, subsets for Exact, toggles for WeightedRefine). Callers
	// aggregate it into telemetry; the algorithms themselves stay
	// dependency-free.
	Evals int
}

// Prefix computes the frequency-prefix Jaccard median of sets.
//
// Elements are sorted by decreasing occurrence count (ties by id for
// determinism); the candidate medians are the m+1 prefixes of that order,
// whose costs are evaluated incrementally in O(k) per prefix. Total time
// O(Σ|S_i| + m·k + m log m) where m is the number of distinct elements and
// k = len(sets). Prefix runs PrefixFlat, first relabeling the elements to
// dense ranks when their ids are negative or sparse; a relabeling that keeps
// the ids' order leaves the result unchanged.
func Prefix(sets []Set) Median {
	var flat []int32
	off := make([]int, 1, len(sets)+1)
	lo, hi := int32(0), int32(-1)
	for _, s := range sets {
		for _, e := range s {
			lo, hi = min(lo, e), max(hi, e)
		}
		flat = append(flat, s...)
		off = append(off, len(flat))
	}
	var ps PrefixScratch
	if lo >= 0 && int(hi) < 4*len(flat)+1024 {
		return ps.PrefixFlat(flat, off, int(hi)+1)
	}
	ids := slices.Clone(flat)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for i, e := range flat {
		r, _ := slices.BinarySearch(ids, e)
		flat[i] = int32(r)
	}
	med := ps.PrefixFlat(flat, off, len(ids))
	for i, r := range med.Set {
		med.Set[i] = ids[r]
	}
	return med
}

// PrefixScratch holds the buffers PrefixFlat reuses between calls. The zero
// value is ready to use; a PrefixScratch must not be used concurrently.
type PrefixScratch struct {
	count  []int32 // per element id: its count, then its rank; zero between calls
	ids    []int32 // the distinct elements, ascending
	ranked []int32 // the distinct elements by rank: count descending, id ascending
	bucket []int32 // per count: the next free rank of that count
	occOff []int   // sets containing the rank-r element: occ[occOff[r]:occOff[r+1]]
	occ    []int32
	inter  []int32 // |C ∩ S_i| for the current prefix C
	sizes  []int32 // |S_i|
	sorted []int32 // the sizes, ascending
}

// PrefixFlat computes Prefix over k = len(off)-1 sets held in one buffer:
// set i is flat[off[i]:off[i+1]], its elements distinct ids in
// [0, universe) in any order. It returns exactly what Prefix returns for
// those sets, sorted, except that Evals counts only the prefixes scanned.
//
// Counts live in a dense scratch reset through the list of distinct ids.
// The rank order comes from sorting the m distinct ids and then a counting
// sort on count ∈ [1, k], and the occurrence lists form one CSR. Each
// prefix's cost is summed in the same order as a full scan, so the costs
// are bit-identical to it.
//
// The scan stops early once no longer prefix can win. A set S_i shares at
// most min(L, |S_i|) elements with a prefix C of length L, so its distance
// to C is at least floor_i(L) = max(0, 1 − |S_i|/L), and floor(L), the
// mean of floor_i(L), does not decrease with L. Every prefix of length
// L′ ≥ L therefore costs at least floor(L), and once floor(L) exceeds the
// best cost so far (plus 1e-9 of rounding slack) no later prefix is
// strictly better.
func (ps *PrefixScratch) PrefixFlat(flat []int32, off []int, universe int) Median {
	k := len(off) - 1
	if k <= 0 {
		return Median{Set: nil, Cost: 0}
	}
	if len(ps.count) < universe {
		ps.count = make([]int32, universe)
	}
	count := ps.count
	ids := ps.ids[:0]
	maxCount := int32(0)
	for _, e := range flat {
		if count[e] == 0 {
			ids = append(ids, e)
		}
		count[e]++
		maxCount = max(maxCount, count[e])
	}
	ps.ids = ids
	m := len(ids)
	if m == 0 {
		// All sets empty: the empty median is exact.
		return Median{Set: Set{}, Cost: 0, Evals: 1}
	}
	slices.Sort(ids)

	// Counting sort by count, descending; ids stay ascending within a count.
	bucket := resize(&ps.bucket, int(maxCount)+1)
	clear(bucket)
	for _, e := range ids {
		bucket[count[e]]++
	}
	next := int32(0)
	for c := maxCount; c >= 1; c-- {
		next, bucket[c] = next+bucket[c], next
	}
	ranked := resize(&ps.ranked, m)
	occOff := resize(&ps.occOff, m+1)
	occOff[0] = 0
	for _, e := range ids {
		c := count[e]
		r := bucket[c]
		bucket[c]++
		ranked[r] = e
		occOff[r+1] = int(c)
		count[e] = r
	}
	// occOff[r+1] becomes the start of rank r's list; filling the list
	// advances it to the list's end, which is where rank r+1 starts.
	start := 0
	for r := 1; r <= m; r++ {
		start, occOff[r] = start+occOff[r], start
	}
	occ := resize(&ps.occ, len(flat))
	sizes := resize(&ps.sizes, k)
	nonEmpty := 0
	for i := 0; i < k; i++ {
		for _, e := range flat[off[i]:off[i+1]] {
			r := count[e] + 1
			occ[occOff[r]] = int32(i)
			occOff[r]++
		}
		sizes[i] = int32(off[i+1] - off[i])
		if sizes[i] > 0 {
			nonEmpty++
		}
	}
	for _, e := range ids {
		count[e] = 0
	}
	sorted := resize(&ps.sorted, k)
	copy(sorted, sizes)
	slices.Sort(sorted)
	inter := resize(&ps.inter, k)
	clear(inter)

	// Cost of the empty prefix: distance 1 to each non-empty set.
	bestLen := 0
	bestCost := float64(nonEmpty) / float64(k)
	evals := 1
	below, belowSum := 0, int64(0) // sets smaller than the prefix, and their total size
	for pfx := 1; pfx <= m; pfx++ {
		for below < k && int(sorted[below]) < pfx {
			belowSum += int64(sorted[below])
			below++
		}
		if floor := (float64(below) - float64(belowSum)/float64(pfx)) / float64(k); floor > bestCost+1e-9 {
			break
		}
		for _, si := range occ[occOff[pfx-1]:occOff[pfx]] {
			inter[si]++
		}
		total := 0.0
		cLen := int32(pfx)
		for i := 0; i < k; i++ {
			union := cLen + sizes[i] - inter[i]
			// union >= cLen >= 1 here.
			total += 1 - float64(inter[i])/float64(union)
		}
		evals++
		cost := total / float64(k)
		if cost < bestCost {
			bestCost = cost
			bestLen = pfx
		}
	}

	med := make(Set, bestLen)
	copy(med, ranked[:bestLen])
	slices.Sort(med)
	return Median{Set: med, Cost: bestCost, Evals: evals}
}

// resize returns *buf resliced to length n, reallocating it when its
// capacity is short. The contents are unspecified.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Majority returns the elements present in at least a fraction theta of the
// sets (theta in (0,1]; the classical choice is 0.5), with its cost.
func Majority(sets []Set, theta float64) Median {
	k := len(sets)
	if k == 0 {
		return Median{Set: nil, Cost: 0}
	}
	counts := make(map[int32]int32)
	for _, s := range sets {
		for _, e := range s {
			counts[e]++
		}
	}
	need := int32(theta * float64(k))
	if float64(need) < theta*float64(k) {
		need++
	}
	if need < 1 {
		need = 1
	}
	med := make(Set, 0)
	for e, c := range counts {
		if c >= need {
			med = append(med, e)
		}
	}
	sortInt32(med)
	return Median{Set: med, Cost: MeanDistance(med, sets), Evals: 1}
}

// Exact exhaustively searches all subsets of the union universe and returns
// a true optimal median. It panics if the universe exceeds 20 elements.
// Among equal-cost optima it returns the one whose element mask is smallest,
// making the result deterministic.
func Exact(sets []Set) Median {
	k := len(sets)
	if k == 0 {
		return Median{Set: nil, Cost: 0}
	}
	var universe Set
	for _, s := range sets {
		universe = Union(universe, s)
	}
	m := len(universe)
	if m > 20 {
		panic("jaccard: Exact universe too large")
	}
	// Precompute each input set as a bitmask over the universe.
	pos := make(map[int32]uint, m)
	for i, e := range universe {
		pos[e] = uint(i)
	}
	masks := make([]uint32, k)
	sizes := make([]int, k)
	for i, s := range sets {
		for _, e := range s {
			masks[i] |= 1 << pos[e]
		}
		sizes[i] = len(s)
	}
	bestMask := uint32(0)
	bestCost := 2.0
	for cand := uint32(0); cand < 1<<uint(m); cand++ {
		cLen := popcount(cand)
		total := 0.0
		for i := 0; i < k; i++ {
			inter := popcount(cand & masks[i])
			union := cLen + sizes[i] - inter
			if union > 0 {
				total += 1 - float64(inter)/float64(union)
			}
		}
		cost := total / float64(k)
		if cost < bestCost {
			bestCost = cost
			bestMask = cand
		}
	}
	med := make(Set, 0, popcount(bestMask))
	for i := 0; i < m; i++ {
		if bestMask&(1<<uint(i)) != 0 {
			med = append(med, universe[i])
		}
	}
	return Median{Set: med, Cost: bestCost, Evals: 1 << uint(m)}
}

func popcount(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func sortInt32(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
