package jaccard

import "sort"

// Weighted Jaccard medians.
//
// The paper's §8 motivates campaigns where market segments carry different
// values. The weighted Jaccard distance
//
//	dW(A, B) = 1 - w(A∩B) / w(A∪B)
//
// (w additive over elements, positive weights) is a metric like its
// unweighted special case, and the typical-cascade machinery generalizes:
// a weighted median summarizes cascades by what they are *worth*, not by
// how many nodes they hit. The frequency-prefix heuristic carries over with
// weighted incremental cost evaluation, and 1-swap local search refines it.

// WeightedDistance returns dW(a, b) under the element weights (indexed by
// element id; ids outside the slice weigh 1). Zero/negative weights are
// treated as 0 — such elements are invisible to the distance.
func WeightedDistance(a, b Set, weight []float64) float64 {
	wOf := func(e int32) float64 {
		if int(e) < len(weight) {
			if w := weight[e]; w > 0 {
				return w
			}
			return 0
		}
		return 1
	}
	var inter, union float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			union += wOf(a[i])
			i++
		case a[i] > b[j]:
			union += wOf(b[j])
			j++
		default:
			w := wOf(a[i])
			inter += w
			union += w
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		union += wOf(a[i])
	}
	for ; j < len(b); j++ {
		union += wOf(b[j])
	}
	if union == 0 {
		return 0
	}
	return 1 - inter/union
}

// WeightedMeanDistance averages WeightedDistance over the sets.
func WeightedMeanDistance(candidate Set, sets []Set, weight []float64) float64 {
	if len(sets) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range sets {
		total += WeightedDistance(candidate, s, weight)
	}
	return total / float64(len(sets))
}

// WeightedPrefix computes a weighted Jaccard median with the frequency-
// prefix heuristic: elements ordered by occurrence count (ties by id), all
// prefixes evaluated under the weighted cost, best prefix returned.
// Zero-weight elements are dropped from the median (they cannot reduce the
// cost).
func WeightedPrefix(sets []Set, weight []float64) Median {
	k := len(sets)
	if k == 0 {
		return Median{Set: nil, Cost: 0}
	}
	wOf := func(e int32) float64 {
		if int(e) < len(weight) {
			if w := weight[e]; w > 0 {
				return w
			}
			return 0
		}
		return 1
	}

	counts := make(map[int32]int32)
	for _, s := range sets {
		for _, e := range s {
			counts[e]++
		}
	}
	elems := make([]int32, 0, len(counts))
	for e := range counts {
		if wOf(e) > 0 {
			elems = append(elems, e)
		}
	}
	if len(elems) == 0 {
		return Median{Set: Set{}, Cost: WeightedMeanDistance(Set{}, sets, weight), Evals: 1}
	}
	sort.Slice(elems, func(i, j int) bool {
		if counts[elems[i]] != counts[elems[j]] {
			return counts[elems[i]] > counts[elems[j]]
		}
		return elems[i] < elems[j]
	})
	rank := make(map[int32]int32, len(elems))
	for i, e := range elems {
		rank[e] = int32(i)
	}
	occ := make([][]int32, len(elems))
	for si, s := range sets {
		for _, e := range s {
			if r, ok := rank[e]; ok {
				occ[r] = append(occ[r], int32(si))
			}
		}
	}

	wInter := make([]float64, k) // w(C ∩ S_i)
	wSize := make([]float64, k)  // w(S_i)
	for i, s := range sets {
		for _, e := range s {
			wSize[i] += wOf(e)
		}
	}
	nonEmpty := 0
	for i := range sets {
		if wSize[i] > 0 {
			nonEmpty++
		}
	}

	bestLen := 0
	bestCost := float64(nonEmpty) / float64(k)
	wC := 0.0
	for pfx := 1; pfx <= len(elems); pfx++ {
		w := wOf(elems[pfx-1])
		wC += w
		for _, si := range occ[pfx-1] {
			wInter[si] += w
		}
		total := 0.0
		for i := 0; i < k; i++ {
			union := wC + wSize[i] - wInter[i]
			if union > 0 {
				total += 1 - wInter[i]/union
			}
		}
		if cost := total / float64(k); cost < bestCost {
			bestCost = cost
			bestLen = pfx
		}
	}

	med := make(Set, bestLen)
	copy(med, elems[:bestLen])
	sortInt32(med)
	return Median{Set: med, Cost: bestCost, Evals: len(elems) + 1}
}

// WeightedRefine polishes a weighted median with 1-swap steepest descent
// under the weighted cost: each sweep evaluates the exact cost change of
// toggling every element of the universe and applies the best improving
// toggle, until a local optimum or maxSweeps sweeps. maxSweeps <= 0 selects
// 64. The returned median's Cost is exact for the returned set.
func WeightedRefine(sets []Set, weight []float64, start Set, maxSweeps int) Median {
	k := len(sets)
	if k == 0 {
		return Median{Set: append(Set(nil), start...), Cost: 0}
	}
	if maxSweeps <= 0 {
		maxSweeps = 64
	}
	wOf := func(e int32) float64 {
		if int(e) < len(weight) {
			if w := weight[e]; w > 0 {
				return w
			}
			return 0
		}
		return 1
	}
	// Universe: union of set elements and start elements with w > 0.
	seen := make(map[int32]bool)
	var universe []int32
	add := func(e int32) {
		if !seen[e] && wOf(e) > 0 {
			seen[e] = true
			universe = append(universe, e)
		}
	}
	for _, s := range sets {
		for _, e := range s {
			add(e)
		}
	}
	for _, e := range start {
		add(e)
	}
	sort.Slice(universe, func(i, j int) bool { return universe[i] < universe[j] })
	rank := make(map[int32]int32, len(universe))
	for i, e := range universe {
		rank[e] = int32(i)
	}
	occ := make([][]int32, len(universe))
	for si, s := range sets {
		for _, e := range s {
			if r, ok := rank[e]; ok {
				occ[r] = append(occ[r], int32(si))
			}
		}
	}
	wInter := make([]float64, k)
	wSize := make([]float64, k)
	for i, s := range sets {
		for _, e := range s {
			wSize[i] += wOf(e)
		}
	}
	inC := make([]bool, len(universe))
	wC := 0.0
	for _, e := range start {
		if r, ok := rank[e]; ok && !inC[r] {
			inC[r] = true
			wC += wOf(e)
			for _, si := range occ[r] {
				wInter[si] += wOf(e)
			}
		}
	}
	cost := func(c float64, itr []float64) float64 {
		total := 0.0
		for i := 0; i < k; i++ {
			union := c + wSize[i] - itr[i]
			if union > 0 {
				total += 1 - itr[i]/union
			}
		}
		return total / float64(k)
	}
	cur := cost(wC, wInter)
	evals := 0
	scratch := make([]float64, k)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		evals += len(universe)
		bestDelta := 0.0
		bestElem := -1
		for r := 0; r < len(universe); r++ {
			w := wOf(universe[r])
			copy(scratch, wInter)
			nc := wC
			if inC[r] {
				nc -= w
				for _, si := range occ[r] {
					scratch[si] -= w
				}
			} else {
				nc += w
				for _, si := range occ[r] {
					scratch[si] += w
				}
			}
			if delta := cost(nc, scratch) - cur; delta < bestDelta-1e-15 {
				bestDelta = delta
				bestElem = r
			}
		}
		if bestElem < 0 {
			break
		}
		r := bestElem
		w := wOf(universe[r])
		if inC[r] {
			inC[r] = false
			wC -= w
			for _, si := range occ[r] {
				wInter[si] -= w
			}
		} else {
			inC[r] = true
			wC += w
			for _, si := range occ[r] {
				wInter[si] += w
			}
		}
		cur += bestDelta
	}
	out := make(Set, 0)
	for r, in := range inC {
		if in {
			out = append(out, universe[r])
		}
	}
	final := cost(wC, wInter)
	return Median{Set: out, Cost: final, Evals: evals}
}
