// Repeated campaigns: the paper's §8 deployment scenario.
//
// The spheres of influence are computed and persisted ONCE. Every later
// marketing campaign — each with its own segment values, seed costs and
// budget — reuses the stored spheres with a different max-cover variant,
// without re-sampling a single cascade.
//
// Run with: go run ./examples/campaigns
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"soi"
	"soi/internal/infmax"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "soi-campaigns")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	spherePath := filepath.Join(dir, "spheres.bin")

	// ---- One-time precomputation (the expensive part). ----
	topo, err := soi.Generate(soi.GenConfig{Model: "ba", N: 1200, M: 5, TailExp: 2.0, Recip: 0.3, Seed: 71})
	if err != nil {
		log.Fatal(err)
	}
	g, err := soi.FixedProbs(topo, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	idx, err := soi.BuildIndex(ctx, g, soi.IndexOptions{Samples: 200, Seed: 72}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	results, err := soi.AllTypicalCascades(ctx, idx, soi.TypicalOptions{}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	if err := soi.SaveSpheres(spherePath, idx, results); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(spherePath)
	fmt.Printf("precomputed %d spheres in %v (%d KiB on disk)\n",
		len(results), time.Since(start).Round(time.Millisecond), info.Size()/1024)

	// ---- Campaign 1: plain reach maximization, k = 50. ----
	stored, err := soi.LoadSpheres(spherePath)
	if err != nil {
		log.Fatal(err)
	}
	spheres := soi.SpheresOf(stored)
	c1, err := soi.SelectSeedsTC(ctx, g, spheres, 50)
	if err != nil {
		log.Fatal(err)
	}
	sigma1, err := soi.ExpectedSpread(ctx, g, c1.Seeds, 2000, 73, idx.Model(), soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign 1 (reach, k=50): covers %.0f sphere elements, σ ≈ %.0f\n",
		c1.Objective(), sigma1)

	// ---- Campaign 2: premium segment is worth 10x. ----
	value := make([]float64, g.NumNodes())
	for v := range value {
		value[v] = 1
		if v%7 == 0 {
			value[v] = 10
		}
	}
	c2, err := infmax.WeightedTC(g, spheres, value, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign 2 (weighted segments): %.0f value units covered\n", c2.Objective())
	// The value-aware sphere of the first pick: what that influencer's
	// typical cascade is *worth*, not just how many nodes it reaches.
	ws := soi.WeightedTypicalCascade(idx, c2.Seeds[:1], value, soi.TypicalOptions{})
	fmt.Printf("  top seed %d: weighted sphere of %d nodes, weighted stability %.3f\n",
		c2.Seeds[0], len(ws.Set), ws.SampleCost)

	// ---- Campaign 3: influencers charge by their degree; budget 100. ----
	cost := make([]float64, g.NumNodes())
	for v := range cost {
		cost[v] = 1 + float64(g.OutDegree(soi.NodeID(v)))/5
	}
	c3, err := infmax.BudgetedTC(g, spheres, cost, 100)
	if err != nil {
		log.Fatal(err)
	}
	spent := 0.0
	for _, v := range c3.Seeds {
		spent += cost[v]
	}
	fmt.Printf("campaign 3 (budgeted): %d seeds, %.1f/100.0 spent, %.0f nodes covered\n",
		len(c3.Seeds), spent, c3.Objective())

	// All three campaigns shared one sphere computation — the next campaign
	// only needs the 3 lines above it.
}
