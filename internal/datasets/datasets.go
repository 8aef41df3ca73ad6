// Package datasets materializes the paper's 12 experimental configurations
// (6 networks × 2 probability methods each) as scale-parameterized synthetic
// analogs. DESIGN.md §3 records the substitution rationale: the real
// datasets are unavailable offline, so each is replaced by a generated graph
// matched on directedness and degree-distribution shape, with probabilities
// either assigned (WC / fixed 0.1) or learnt (Saito EM / Goyal) from a
// synthetic propagation log simulated over a known ground truth.
//
// Names follow the paper's suffix convention: "-S" Saito-learnt, "-G"
// Goyal-learnt, "-W" weighted cascade, "-F" fixed 0.1.
package datasets

import (
	"fmt"
	"sort"
	"strings"

	"soi/internal/gen"
	"soi/internal/graph"
	"soi/internal/probs"
	"soi/internal/proplog"
)

// base describes one of the six network analogs at Scale = 1.
type base struct {
	name    string
	model   string
	n       int
	m       int
	beta    float64
	tail    float64 // out-degree tail exponent (0 = constant M)
	clust   float64 // triad-formation probability (graph clustering)
	recip   float64 // reciprocity of directed links (in/out degree coupling)
	mutual  bool
	learnt  bool    // true: probabilities learnt from a synthetic log
	truthLo float64 // ground-truth probability range for the synthetic log
	truthHi float64
	genSeed uint64
}

// The Scale=1 sizes are the paper's networks shrunk ~20x so that the full
// 12-configuration suite runs on a laptop; experiments scale up via Config.
// Reciprocity and ground-truth ranges are tuned so each configuration lands
// in the same cascade-size regime as the paper's Table 2 (tiny spheres for
// the learnt and WC configurations, giant supercritical spheres for the
// fixed-0.1 ones); see EXPERIMENTS.md for the measured match.
var bases = []base{
	{name: "digg", model: "ba", n: 3400, m: 6, tail: 2.0, recip: 0.3, mutual: false, learnt: true, truthLo: 0.01, truthHi: 0.14, genSeed: 101},
	{name: "flixster", model: "ba", n: 6800, m: 4, tail: 2.0, mutual: true, learnt: true, truthLo: 0.005, truthHi: 0.08, genSeed: 102},
	{name: "twitter", model: "ba", n: 1200, m: 14, tail: 2.0, mutual: true, learnt: true, truthLo: 0.006, truthHi: 0.07, genSeed: 103},
	{name: "nethept", model: "ba", n: 760, m: 3, tail: 1.9, mutual: true, learnt: false, genSeed: 104},
	{name: "epinions", model: "ba", n: 3800, m: 7, tail: 1.9, recip: 0.5, mutual: false, learnt: false, genSeed: 105},
	{name: "slashdot", model: "ba", n: 3850, m: 12, tail: 2.6, recip: 0.12, mutual: false, learnt: false, genSeed: 106},
}

// Config controls dataset materialization.
type Config struct {
	// Scale multiplies node counts; 1.0 is the default laptop scale
	// (paper sizes / ~20). Values below 0.05 are clamped to 0.05.
	Scale float64
	// Seed perturbs all generation seeds, letting experiments draw
	// independent replicas. 0 keeps the canonical datasets.
	Seed uint64
}

func (c *Config) defaults() {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Scale < 0.05 {
		c.Scale = 0.05
	}
}

// Dataset is one fully-materialized configuration.
type Dataset struct {
	// Name is e.g. "digg-S" or "nethept-W".
	Name string
	// Directed reports whether the underlying analog is a directed network
	// (false = mutual-edge, the paper's treatment of undirected graphs).
	Directed bool
	// Method is one of "saito", "goyal", "wc", "fixed".
	Method string
	// Graph carries the final influence probabilities.
	Graph *graph.Graph
	// Topology is the unweighted network (placeholder probabilities).
	Topology *graph.Graph
	// GroundTruth is the probability assignment the log was simulated from;
	// nil for assigned configurations.
	GroundTruth *graph.Graph
	// Log is the synthetic propagation log; nil for assigned configurations.
	Log *proplog.Log
}

// Names returns the 12 configuration names in canonical order.
func Names() []string {
	var out []string
	for _, b := range bases {
		if b.learnt {
			out = append(out, b.name+"-S", b.name+"-G")
		} else {
			out = append(out, b.name+"-W", b.name+"-F")
		}
	}
	return out
}

// BaseNames returns the six network names.
func BaseNames() []string {
	out := make([]string, len(bases))
	for i, b := range bases {
		out[i] = b.name
	}
	return out
}

// Load materializes the named configuration.
func Load(name string, cfg Config) (*Dataset, error) {
	cfg.defaults()
	idx := strings.LastIndex(name, "-")
	if idx < 0 {
		return nil, fmt.Errorf("datasets: name %q lacks a -S/-G/-W/-F suffix", name)
	}
	baseName, suffix := name[:idx], name[idx+1:]
	var b *base
	for i := range bases {
		if bases[i].name == baseName {
			b = &bases[i]
			break
		}
	}
	if b == nil {
		return nil, fmt.Errorf("datasets: unknown network %q (have %v)", baseName, BaseNames())
	}

	topo, err := topology(b, cfg)
	if err != nil {
		return nil, err
	}
	d := &Dataset{
		Name:     name,
		Directed: !b.mutual,
		Topology: topo,
	}

	switch suffix {
	case "S", "G":
		if !b.learnt {
			return nil, fmt.Errorf("datasets: %s is an assigned-probability network; use -W or -F", baseName)
		}
		if err := d.learn(b, cfg, suffix); err != nil {
			return nil, err
		}
	case "W":
		if b.learnt {
			return nil, fmt.Errorf("datasets: %s is a learnt-probability network; use -S or -G", baseName)
		}
		d.Method = "wc"
		d.Graph, err = probs.WeightedCascade(topo)
		if err != nil {
			return nil, err
		}
	case "F":
		if b.learnt {
			return nil, fmt.Errorf("datasets: %s is a learnt-probability network; use -S or -G", baseName)
		}
		d.Method = "fixed"
		d.Graph, err = probs.Fixed(topo, 0.1)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("datasets: unknown suffix %q (want S, G, W or F)", suffix)
	}
	return d, nil
}

func topology(b *base, cfg Config) (*graph.Graph, error) {
	n := int(float64(b.n) * cfg.Scale)
	if n < 20 {
		n = 20
	}
	gc := gen.Config{
		Model:      b.model,
		N:          n,
		M:          b.m,
		Beta:       b.beta,
		TailExp:    b.tail,
		Clustering: b.clust,
		Recip:      b.recip,
		Mutual:     b.mutual,
		Seed:       b.genSeed ^ cfg.Seed,
	}
	if gc.Model == "ws" && gc.M >= gc.N {
		gc.M = gc.N - 1
	}
	return gen.Generate(gc)
}

func (d *Dataset) learn(b *base, cfg Config, suffix string) error {
	truth, err := probs.Uniform(d.Topology, b.truthLo, b.truthHi, b.genSeed^cfg.Seed^0xA5A5)
	if err != nil {
		return err
	}
	d.GroundTruth = truth
	items := 3 * d.Topology.NumNodes()
	log, err := proplog.Generate(truth, proplog.GenerateConfig{
		Items:        items,
		SeedsPerItem: 2,
		Seed:         b.genSeed ^ cfg.Seed ^ 0x5A5A,
	})
	if err != nil {
		return err
	}
	d.Log = log
	switch suffix {
	case "S":
		d.Method = "saito"
		d.Graph, err = probs.Saito(d.Topology, log, probs.SaitoConfig{MaxIter: 60})
	case "G":
		d.Method = "goyal"
		d.Graph, err = probs.Goyal(d.Topology, log, probs.GoyalConfig{Window: 3})
	}
	return err
}

// EdgeProbabilities returns the sorted multiset of edge probabilities of the
// final graph — the series behind the paper's Figure 3 CDFs.
func (d *Dataset) EdgeProbabilities() []float64 {
	out := make([]float64, 0, d.Graph.NumEdges())
	for _, e := range d.Graph.Edges() {
		out = append(out, e.Prob)
	}
	sort.Float64s(out)
	return out
}
