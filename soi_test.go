package soi

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"soi/internal/core"
)

// TestEndToEndViralMarketing drives the full public API the way the
// quickstart does: build a graph, index it, compute spheres, select seeds
// with both methods, and compare spreads.
func TestEndToEndViralMarketing(t *testing.T) {
	topo, err := Generate(GenConfig{Model: "ba", N: 300, M: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := WeightedCascade(topo)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(context.Background(), g, IndexOptions{Samples: 200, Seed: 2}, ResumeConfig{})
	if err != nil {
		t.Fatal(err)
	}

	all, err := AllTypicalCascades(context.Background(), idx, TypicalOptions{}, ResumeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	spheres := SpheresOf(all)
	if len(spheres) != g.NumNodes() {
		t.Fatalf("spheres: %d for %d nodes", len(spheres), g.NumNodes())
	}

	const k = 20
	std, err := SelectSeedsStd(context.Background(), idx, k)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := SelectSeedsTC(context.Background(), g, spheres, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(std.Seeds) != k || len(tc.Seeds) != k {
		t.Fatalf("seed counts: %d / %d", len(std.Seeds), len(tc.Seeds))
	}

	s := idx.NewScratch()
	spreadStd := SpreadFromIndex(idx, std.Seeds, s)
	spreadTC := SpreadFromIndex(idx, tc.Seeds, s)
	rnd, err := SelectSeedsRandom(g, k, 3)
	if err != nil {
		t.Fatal(err)
	}
	spreadRnd := SpreadFromIndex(idx, rnd.Seeds, s)

	// Both principled methods must beat random seeds comfortably.
	if spreadStd <= spreadRnd || spreadTC <= spreadRnd {
		t.Fatalf("spreads std=%v tc=%v rnd=%v: methods failed to beat random",
			spreadStd, spreadTC, spreadRnd)
	}
	// And land within a sane band of each other (paper: curves cross but
	// stay comparable).
	if ratio := spreadTC / spreadStd; ratio < 0.5 || ratio > 2 {
		t.Fatalf("spread ratio TC/std = %v out of band", ratio)
	}
}

func TestTypicalCascadeAndStability(t *testing.T) {
	b := NewGraphBuilder(4)
	b.AddEdge(0, 1, 0.9)
	b.AddEdge(1, 2, 0.9)
	b.AddEdge(2, 3, 0.05)
	g := b.MustBuild()
	idx, err := BuildIndex(context.Background(), g, IndexOptions{Samples: 500, Seed: 4}, ResumeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sphere := TypicalCascade(idx, 0, TypicalOptions{CostSamples: 1000, CostSeed: 5})
	// 0 -> 1 -> 2 are near-certain; 3 is a long shot: the sphere should be
	// {0,1,2}.
	want := []NodeID{0, 1, 2}
	if len(sphere.Set) != len(want) {
		t.Fatalf("sphere = %v, want %v", sphere.Set, want)
	}
	for i := range want {
		if sphere.Set[i] != want[i] {
			t.Fatalf("sphere = %v, want %v", sphere.Set, want)
		}
	}
	if sphere.ExpectedCost < 0 || sphere.ExpectedCost > 0.3 {
		t.Fatalf("stability %v out of expected band", sphere.ExpectedCost)
	}
	// Direct stability estimate agrees.
	direct, _, err := EstimateStability(context.Background(), g, []NodeID{0}, sphere.Set, 2000, 6, ModelIC, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct-sphere.ExpectedCost) > 0.05 {
		t.Fatalf("EstimateStability %v vs sphere cost %v", direct, sphere.ExpectedCost)
	}
}

func TestLearningRoundTrip(t *testing.T) {
	topo, err := Generate(GenConfig{Model: "er", N: 40, M: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := FixedProbs(topo, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	log, err := SimulateLog(truth, 2000, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	learnt, err := LearnSaito(topo, log, SaitoConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if learnt.NumEdges() == 0 {
		t.Fatal("nothing learnt")
	}
	if m := learnt.MeanProb(); math.Abs(m-0.3) > 0.08 {
		t.Fatalf("learnt mean prob %v, truth 0.3", m)
	}
}

func TestReliabilityFacade(t *testing.T) {
	b := NewGraphBuilder(3)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.5)
	g := b.MustBuild()
	rel, err := Reliability(context.Background(), g, 0, 2, 100000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rel-0.25) > 0.01 {
		t.Fatalf("rel = %v, want ~0.25", rel)
	}
	nodes, err := ReliabilitySearch(context.Background(), g, []NodeID{0}, 0.4, 50000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 { // 0 (1.0) and 1 (0.5)
		t.Fatalf("search = %v", nodes)
	}
}

func TestDatasetFacade(t *testing.T) {
	names := DatasetNames()
	if len(names) != 12 {
		t.Fatalf("got %d dataset names", len(names))
	}
	d, err := LoadDataset("nethept-F", DatasetConfig{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(d.Name, "nethept") || d.Graph.NumEdges() == 0 {
		t.Fatalf("bad dataset %+v", d.Name)
	}
}

func TestGraphIOFacade(t *testing.T) {
	b := NewGraphBuilder(3)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.25)
	g := b.MustBuild()
	path := t.TempDir() + "/g.tsv"
	if err := SaveGraph(path, g, nil); err != nil {
		t.Fatal(err)
	}
	g2, _, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 {
		t.Fatalf("round trip lost edges: %d", g2.NumEdges())
	}
}

func TestIndexPersistenceFacade(t *testing.T) {
	topo, err := Generate(GenConfig{Model: "er", N: 50, M: 150, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	g, err := FixedProbs(topo, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(context.Background(), g, IndexOptions{Samples: 20, Seed: 12}, ResumeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/idx.bin"
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	idx2, err := LoadIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	a := TypicalCascade(idx, 0, TypicalOptions{})
	b2 := TypicalCascade(idx2, 0, TypicalOptions{})
	if JaccardDistance(a.Set, b2.Set) != 0 {
		t.Fatal("reloaded index gives different sphere")
	}
}

func TestFacadeNewMethods(t *testing.T) {
	topo, err := Generate(GenConfig{Model: "ba", N: 150, M: 3, TailExp: 2.0, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	g, err := FixedProbs(topo, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(context.Background(), g, IndexOptions{Samples: 60, Seed: 22}, ResumeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	std, err := SelectSeedsStd(context.Background(), idx, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(std.Seeds) != k {
		t.Fatalf("std selected %d seeds", len(std.Seeds))
	}
	rr, err := SelectSeedsRR(context.Background(), g, k, RROptions{Sets: 4000, Seed: 23}, ResumeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Seeds) != k {
		t.Fatalf("RR selected %d seeds", len(rr.Seeds))
	}
	mc, err := SelectSeedsStdMC(context.Background(), g, 3, MCOptions{Trials: 60, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Seeds) != 3 {
		t.Fatalf("MC selected %d seeds", len(mc.Seeds))
	}
}

func TestFacadeLTModel(t *testing.T) {
	topo, err := Generate(GenConfig{Model: "er", N: 60, M: 180, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	g, err := WeightedCascade(topo)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(context.Background(), g, IndexOptions{Samples: 80, Seed: 26, Model: ModelLT}, ResumeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Model() != ModelLT {
		t.Fatalf("index model %v, want LT", idx.Model())
	}
	sphere := TypicalCascade(idx, 0, TypicalOptions{CostSamples: 100, CostSeed: 27})
	if len(sphere.Set) == 0 || sphere.ExpectedCost < 0 || sphere.ExpectedCost > 1 {
		t.Fatalf("LT sphere = %+v", sphere)
	}
}

// TestLoadIndexChecksItsInputs: LoadIndex restores the model the index was
// built under, refuses a graph other than the one it was sampled from
// (naming both fingerprints) and refuses a retired SOIIDX03 or SOIIDX04
// file with the rebuild command.
func TestLoadIndexChecksItsInputs(t *testing.T) {
	b := NewGraphBuilder(6)
	for i := 0; i < 6; i++ {
		b.AddEdge(NodeID(i), NodeID((i+1)%6), 0.7)
	}
	g := b.MustBuild()
	idx, err := BuildIndex(context.Background(), g, IndexOptions{Samples: 5, Seed: 1, Model: ModelLT}, ResumeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "g.idx")
	if err := idx.SaveFile(p); err != nil {
		t.Fatal(err)
	}
	if back, err := LoadIndex(p, g); err != nil || back.Model() != ModelLT || back.GraphFingerprint() != Fingerprint(g) {
		t.Fatalf("LoadIndex of its own graph: err %v", err)
	}
	ob := NewGraphBuilder(6)
	for i := 0; i < 6; i++ {
		ob.AddEdge(NodeID(i), NodeID((i+2)%6), 0.7)
	}
	other := ob.MustBuild()
	_, err = LoadIndex(p, other)
	for _, fp := range []uint64{Fingerprint(g), Fingerprint(other)} {
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%016x", fp)) {
			t.Fatalf("LoadIndex over another graph: err %v, want both fingerprints", err)
		}
	}
	dir := filepath.Join("internal", "index", "testdata")
	old, _, err := LoadGraph(filepath.Join(dir, "soiidx03.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"SOIIDX03", "SOIIDX04"} {
		if _, err := LoadIndex(filepath.Join(dir, strings.ToLower(magic)+".idx"), old); err == nil || !strings.Contains(err.Error(), magic) ||
			!strings.Contains(err.Error(), "sphere -graph g.tsv -build-index new.idx") {
			t.Fatalf("LoadIndex of a %s file: err %v, want the retired magic and the rebuild command", magic, err)
		}
	}
}

// TestEstimateStabilityModel: the facade samples under the model it is
// given. Under LT it returns exactly core.EstimateCost's LT estimate; on a
// node whose two in-weights sum to 1 that is a certain cascade (ρ = 0),
// where IC leaves the node out a quarter of the time.
func TestEstimateStabilityModel(t *testing.T) {
	b := NewGraphBuilder(3)
	b.AddEdge(0, 2, 0.5)
	b.AddEdge(1, 2, 0.5)
	g := b.MustBuild()
	ctx := context.Background()
	seeds, set := []NodeID{0, 1}, []NodeID{0, 1, 2}
	got, _, err := EstimateStability(ctx, g, seeds, set, 4000, 5, ModelLT, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.EstimateCost(ctx, g, seeds, set, 4000, 5, ModelLT, Budget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got != 0 {
		t.Fatalf("LT stability = %v, core.EstimateCost under LT = %v, want both 0", got, want)
	}
	ic, _, err := EstimateStability(ctx, g, seeds, set, 4000, 5, ModelIC, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ic-1.0/12) > 0.02 {
		t.Fatalf("IC stability = %v, want about 1/12", ic)
	}
}
