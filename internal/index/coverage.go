package index

import "soi/internal/graph"

// Coverage tracks, for every indexed world, the set of components already
// activated by a growing seed set. It is the state behind the greedy
// influence-maximization loop: the marginal spread gain of a candidate seed
// v is the number of not-yet-covered nodes its cascades would add, summed
// over worlds.
//
// Coverage exploits a structural fact: the covered node set of a world is a
// union of cascades, hence closed under condensation reachability. A
// traversal computing a marginal gain can therefore prune at any covered
// component — everything below it is covered too. This makes late greedy
// iterations (where most of the graph is covered) nearly free.
//
// Coverage is not safe for concurrent mutation; gain queries from multiple
// goroutines may share a Coverage only with distinct Scratches and no
// concurrent Add.
type Coverage struct {
	x       *Index
	covered [][]bool // per world, per component
	total   int64    // covered node-slots across all worlds
}

// NewCoverage returns an empty coverage for the index. Quarantined worlds
// have no components and contribute no gain in every query.
func (x *Index) NewCoverage() *Coverage {
	n := x.NumWorlds()
	c := &Coverage{x: x, covered: make([][]bool, n)}
	for i := 0; i < n; i++ {
		c.covered[i] = make([]bool, x.NumComponents(i))
	}
	return c
}

// Reset clears all coverage.
func (c *Coverage) Reset() {
	for i := range c.covered {
		for j := range c.covered[i] {
			c.covered[i][j] = false
		}
	}
	c.total = 0
}

// MarginalGain returns the total number of uncovered nodes, summed over all
// worlds, that adding v as a seed would newly cover. Divide by NumWorlds for
// the marginal expected-spread estimate.
func (c *Coverage) MarginalGain(v graph.NodeID, s *Scratch) int64 {
	var gain int64
	for i := 0; i < c.x.NumWorlds(); i++ {
		gain += int64(c.gainInWorld(v, i, s))
	}
	return gain
}

func (c *Coverage) gainInWorld(v graph.NodeID, i int, s *Scratch) int {
	e := c.x.world(i)
	if e == nil {
		return 0
	}
	cov := c.covered[i]
	root := e.comp[v]
	if cov[root] {
		return 0
	}
	s.comps = s.comps[:0]
	s.comps = append(s.comps, root)
	s.mark[root] = true
	gain := 0
	for head := 0; head < len(s.comps); head++ {
		cc := s.comps[head]
		gain += int(e.memberOff[cc+1] - e.memberOff[cc])
		for _, d := range e.succs(cc) {
			if !s.mark[d] && !cov[d] {
				s.mark[d] = true
				s.comps = append(s.comps, d)
			}
		}
	}
	for _, cc := range s.comps {
		s.mark[cc] = false
	}
	return gain
}

// Add marks v's cascades as covered in every world and returns the realized
// gain (identical to MarginalGain(v) immediately beforehand).
func (c *Coverage) Add(v graph.NodeID, s *Scratch) int64 {
	var gain int64
	for i := 0; i < c.x.NumWorlds(); i++ {
		e := c.x.world(i)
		if e == nil {
			continue
		}
		cov := c.covered[i]
		root := e.comp[v]
		if cov[root] {
			continue
		}
		s.comps = s.comps[:0]
		s.comps = append(s.comps, root)
		cov[root] = true
		for head := 0; head < len(s.comps); head++ {
			cc := s.comps[head]
			gain += int64(e.memberOff[cc+1] - e.memberOff[cc])
			for _, d := range e.succs(cc) {
				if !cov[d] {
					cov[d] = true
					s.comps = append(s.comps, d)
				}
			}
		}
	}
	c.total += gain
	return gain
}

// CoveredNodeSlots returns the total covered node count summed over worlds;
// divided by NumWorlds it is the current expected-spread estimate of the
// seed set accumulated through Add.
func (c *Coverage) CoveredNodeSlots() int64 { return c.total }
