package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"

	"soi"
	"soi/internal/atomicfile"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/router"
	"soi/internal/scc"
	"soi/internal/telemetry"
	"soi/internal/worlds"
)

// partitionShards is the -shards mode: split the graph into k SCC-respecting
// shards, build each shard's serving artifacts (edge list, cascade index,
// sphere store), and write the soi.topology/v1 manifest that cmd/soigw
// consumes. Artifacts land at <prefix>-shard<N>.{tsv,idx,spheres} with the
// manifest at <prefix>-topology.json.
func partitionShards(ctx context.Context, g *graph.Graph, orig []int64, k int,
	prefix string, samples, costSamples int, seed uint64, model worlds.Model, tel *telemetry.Registry) error {
	if prefix == "" {
		return fmt.Errorf("-shards requires -shard-out PREFIX")
	}

	p, err := scc.Partition(g, k)
	if err != nil {
		return err
	}
	// The manifest's graph fingerprint is the run report's graph hash.
	fp := soi.Fingerprint(g)
	tel.SetGraphHash(fp)
	topo := &router.Topology{
		Format:           router.TopologyFormat,
		GraphFingerprint: fmt.Sprintf("%016x", fp),
		NumNodes:         g.NumNodes(),
		CutEdges:         len(p.CutEdges),
		CutBound:         p.CutBound,
		CutProb:          p.CutProb,
	}

	name := func(v graph.NodeID) int64 {
		if orig != nil {
			return orig[v]
		}
		return int64(v)
	}
	for s := 0; s < k; s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sub, back, err := p.Subgraph(g, s)
		if err != nil {
			return err
		}
		shardOrig := make([]int64, len(back))
		for i, v := range back {
			shardOrig[i] = name(v)
		}

		// Serialize the shard edge list, then parse those same bytes back:
		// the reloaded graph has the exact dense order a soid process will
		// see, so the index and sphere store built from it match the file.
		var buf bytes.Buffer
		if err := graph.WriteTSV(&buf, sub, shardOrig); err != nil {
			return err
		}
		gs, origS, err := graph.ReadTSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fmt.Errorf("shard %d round-trip: %w", s, err)
		}
		graphPath := fmt.Sprintf("%s-shard%d.tsv", prefix, s)
		if err := atomicfile.WriteFile(graphPath, func(w io.Writer) error {
			_, err := w.Write(buf.Bytes())
			return err
		}); err != nil {
			return err
		}

		x, err := index.Build(ctx, gs, index.Options{
			Samples: samples,
			Seed:    seed + uint64(s), // deterministic, decorrelated across shards
			Model:   model,
		}, checkpoint.Config{})
		if err != nil {
			return fmt.Errorf("shard %d index: %w", s, err)
		}
		indexPath := fmt.Sprintf("%s-shard%d.idx", prefix, s)
		if err := x.SaveFile(indexPath); err != nil {
			return err
		}

		spheres, err := core.ComputeAll(ctx, x, core.Options{
			CostSamples: costSamples,
			CostSeed:    seed ^ 0xC057,
		}, checkpoint.Config{})
		if err != nil {
			return fmt.Errorf("shard %d spheres: %w", s, err)
		}
		spherePath := fmt.Sprintf("%s-shard%d.spheres", prefix, s)
		if err := core.SaveSpheresFile(spherePath, x.Fingerprint(), spheres); err != nil {
			return err
		}

		topo.Shards = append(topo.Shards, router.ShardManifest{
			ID:               s,
			GraphFile:        filepath.Base(graphPath),
			IndexFile:        filepath.Base(indexPath),
			SphereFile:       filepath.Base(spherePath),
			GraphFingerprint: fmt.Sprintf("%016x", x.GraphFingerprint()),
			IndexFingerprint: fmt.Sprintf("%016x", x.Fingerprint()),
			NumNodes:         gs.NumNodes(),
			NumEdges:         gs.NumEdges(),
			Nodes:            origS,
		})
		fmt.Printf("shard %d: %d nodes, %d edges -> %s\n", s, gs.NumNodes(), gs.NumEdges(), graphPath)
	}

	if err := topo.Validate(); err != nil {
		return fmt.Errorf("internal: generated manifest invalid: %w", err)
	}
	manifestPath := prefix + "-topology.json"
	if err := router.SaveTopology(manifestPath, topo); err != nil {
		return err
	}
	fmt.Printf("topology: %d shards, %d cut edges (spread bound +%.3f, prob bound +%.3f) -> %s\n",
		k, topo.CutEdges, topo.CutBound, topo.CutProb, manifestPath)
	return nil
}
