package jaccard

import (
	"math"
	"slices"
	"sort"
	"testing"

	"soi/internal/rng"
)

// refPrefix is the map-and-sort.Slice Prefix the flat kernel replaced, kept
// verbatim (apart from its name) as the reference the kernel must match bit
// for bit.
func refPrefix(sets []Set) Median {
	k := len(sets)
	if k == 0 {
		return Median{Set: nil, Cost: 0}
	}

	// Occurrence counts and the inverted index element -> containing sets.
	counts := make(map[int32]int32)
	for _, s := range sets {
		for _, e := range s {
			counts[e]++
		}
	}
	m := len(counts)
	if m == 0 {
		// All sets empty: the empty median is exact.
		return Median{Set: Set{}, Cost: 0, Evals: 1}
	}
	elems := make([]int32, 0, m)
	for e := range counts {
		elems = append(elems, e)
	}
	sort.Slice(elems, func(i, j int) bool {
		if counts[elems[i]] != counts[elems[j]] {
			return counts[elems[i]] > counts[elems[j]]
		}
		return elems[i] < elems[j]
	})
	rank := make(map[int32]int32, m)
	for i, e := range elems {
		rank[e] = int32(i)
	}
	// occ[r] lists (by set index) the sets containing the rank-r element.
	occ := make([][]int32, m)
	for si, s := range sets {
		for _, e := range s {
			r := rank[e]
			occ[r] = append(occ[r], int32(si))
		}
	}

	inter := make([]int32, k) // |C ∩ S_i| for the current prefix C
	sizes := make([]int32, k)
	nonEmpty := 0
	for i, s := range sets {
		sizes[i] = int32(len(s))
		if len(s) > 0 {
			nonEmpty++
		}
	}

	// Cost of the empty prefix: distance 1 to each non-empty set.
	bestLen := 0
	bestCost := float64(nonEmpty) / float64(k)

	for pfx := 1; pfx <= m; pfx++ {
		for _, si := range occ[pfx-1] {
			inter[si]++
		}
		total := 0.0
		cLen := int32(pfx)
		for i := 0; i < k; i++ {
			union := cLen + sizes[i] - inter[i]
			// union >= cLen >= 1 here.
			total += 1 - float64(inter[i])/float64(union)
		}
		cost := total / float64(k)
		if cost < bestCost {
			bestCost = cost
			bestLen = pfx
		}
	}

	med := make(Set, bestLen)
	copy(med, elems[:bestLen])
	sortInt32(med)
	return Median{Set: med, Cost: bestCost, Evals: m + 1}
}

// checkPrefix asserts that Prefix and PrefixFlat (fed the sets shuffled,
// through a reused scratch) return the reference's Set and Cost bits, and
// that the early exit only ever shortens the scan.
func checkPrefix(t *testing.T, sets []Set, ps *PrefixScratch, r *rng.PCG32) {
	t.Helper()
	want := refPrefix(sets)
	check := func(name string, got Median) {
		t.Helper()
		if !slices.Equal(got.Set, want.Set) || (got.Set == nil) != (want.Set == nil) {
			t.Fatalf("%s: set %v, reference %v (sets %v)", name, got.Set, want.Set, sets)
		}
		if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
			t.Fatalf("%s: cost %v, reference %v (sets %v)", name, got.Cost, want.Cost, sets)
		}
		if got.Evals < 1 && len(sets) > 0 || got.Evals > want.Evals {
			t.Fatalf("%s: %d evals, reference %d", name, got.Evals, want.Evals)
		}
	}
	check("Prefix", Prefix(sets))

	universe := int32(0)
	for _, s := range sets {
		for _, e := range s {
			if e < 0 {
				return // PrefixFlat takes ids in [0, universe)
			}
			universe = max(universe, e+1)
		}
	}
	flat, off := []int32{}, []int{0}
	for _, s := range sets {
		start := len(flat)
		flat = append(flat, s...)
		for i := len(flat) - 1; i > start; i-- {
			j := start + r.Intn(i-start+1)
			flat[i], flat[j] = flat[j], flat[i]
		}
		off = append(off, len(flat))
	}
	check("PrefixFlat", ps.PrefixFlat(flat, off, int(universe)))
}

func TestPrefixMatchesReference(t *testing.T) {
	r := rng.New(42)
	var ps PrefixScratch
	cases := [][]Set{
		nil,
		{{}},
		{{}, {}, {}},
		{{7}},
		{{0, 1, 2}},
		{{1, 2}, {2, 3}, {3, 1}},    // every count ties
		{{5}, {5}, {6}, {6}},        // ties broken by id
		{{1, 2, 3}, {}, {1, 2}, {}}, // empty sets among non-empty ones
		{{-3, 4}, {-3}, {4, 1 << 30}},
	}
	giant := make(Set, 5000)
	for i := range giant {
		giant[i] = int32(3 * i)
	}
	cases = append(cases, []Set{giant, {0, 3}, {3, 6, 9}, {}}, []Set{giant})
	for _, sets := range cases {
		checkPrefix(t, sets, &ps, r)
	}
	for trial := 0; trial < 3000; trial++ {
		k := 1 + r.Intn(40)
		universe := 1 + r.Intn(60)
		sets := randomSets(r, k, universe, min(universe, r.Intn(30)))
		switch r.Intn(10) {
		case 0:
			// A handful of identical sets makes every count tie.
			for i := range sets {
				sets[i] = sets[0]
			}
		case 1:
			// Negative and sparse ids take Prefix's relabeling path.
			for _, s := range sets {
				for j := range s {
					s[j] = s[j]*40009 - 1000000
				}
			}
		}
		checkPrefix(t, sets, &ps, r)
	}
}

// FuzzPrefix checks Prefix and PrefixFlat against the reference on set
// families decoded from the input: the first byte picks k, and each later
// byte adds element b/k%64 to set b%k.
func FuzzPrefix(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 9, 9, 200, 17})
	f.Add([]byte{5, 10, 15, 20, 25, 30, 35, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkPrefix(t, nil, new(PrefixScratch), rng.New(1))
			return
		}
		k := 1 + int(data[0])%32
		sets := make([]Set, k)
		for _, b := range data[1:] {
			i, e := int(b)%k, int32(int(b)/k%64)
			if !slices.Contains(sets[i], e) {
				sets[i] = append(sets[i], e)
			}
		}
		for _, s := range sets {
			slices.Sort(s)
		}
		checkPrefix(t, sets, new(PrefixScratch), rng.New(uint64(len(data))))
	})
}
