// Viral marketing: the paper's headline experiment in miniature.
//
// Generates a scale-free social network, assigns weighted-cascade
// probabilities, selects seed sets of growing size with the standard greedy
// (InfMax_std) and the typical-cascade max-cover (InfMax_TC), and scores
// both on held-out worlds — the Figure-6 comparison. It also runs the
// weighted and budgeted variants from the paper's future-work section.
//
// Run with: go run ./examples/viralmarketing
package main

import (
	"context"
	"fmt"
	"log"

	"soi"
	"soi/internal/infmax"
)

func main() {
	ctx := context.Background()
	topo, err := soi.Generate(soi.GenConfig{Model: "ba", N: 2000, M: 5, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	g, err := soi.WeightedCascade(topo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d nodes, %d edges, weighted-cascade probabilities\n",
		g.NumNodes(), g.NumEdges())

	idx, err := soi.BuildIndex(ctx, g, soi.IndexOptions{Samples: 400, Seed: 5}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	all, err := soi.AllTypicalCascades(ctx, idx, soi.TypicalOptions{}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	spheres := soi.SpheresOf(all)

	const k = 100
	std, err := soi.SelectSeedsStd(ctx, idx, k)
	if err != nil {
		log.Fatal(err)
	}
	tc, err := soi.SelectSeedsTC(ctx, g, spheres, k)
	if err != nil {
		log.Fatal(err)
	}

	// Held-out evaluation: both methods scored on the same fresh worlds.
	eval, err := soi.BuildIndex(ctx, g, soi.IndexOptions{Samples: 400, Seed: 1005}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	s := eval.NewScratch()
	fmt.Println("\n  k   σ(InfMax_std)   σ(InfMax_TC)")
	for _, kk := range []int{1, 5, 10, 25, 50, 75, 100} {
		fmt.Printf("%4d %14.1f %14.1f\n", kk,
			soi.SpreadFromIndex(eval, std.Seeds[:kk], s),
			soi.SpreadFromIndex(eval, tc.Seeds[:kk], s))
	}

	// Future-work variants (§8): market segments with values, and seeds
	// with recruitment costs under a budget.
	value := make([]float64, g.NumNodes())
	for v := range value {
		value[v] = 1
		if v%10 == 0 {
			value[v] = 5 // a premium segment worth 5x
		}
	}
	weighted, err := infmax.WeightedTC(g, spheres, value, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nweighted max-cover: 20 seeds covering %.0f value units\n", weighted.Objective())

	cost := make([]float64, g.NumNodes())
	for v := range cost {
		cost[v] = 1 + float64(topo.OutDegree(soi.NodeID(v)))/10 // hubs cost more
	}
	budgeted, err := infmax.BudgetedTC(g, spheres, cost, 25)
	if err != nil {
		log.Fatal(err)
	}
	spent := 0.0
	for _, v := range budgeted.Seeds {
		spent += cost[v]
	}
	fmt.Printf("budgeted max-cover: %d seeds, %.1f/25.0 budget spent, %.0f nodes covered\n",
		len(budgeted.Seeds), spent, budgeted.Objective())
}
