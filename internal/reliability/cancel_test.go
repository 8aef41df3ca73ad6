package reliability

import (
	"context"
	"errors"
	"testing"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/worlds"
)

func cancelTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(10)
	for i := 0; i < 9; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 0.5)
	}
	return b.MustBuild()
}

func TestFromSourceCtxPreCanceled(t *testing.T) {
	g := cancelTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := FromSource(ctx, g, []graph.NodeID{0}, 100, 1, worlds.IC, checkpoint.Budget{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSearchCtxPreCanceled(t *testing.T) {
	g := cancelTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Search(ctx, g, []graph.NodeID{0}, 0.5, 100, 2, worlds.IC, checkpoint.Budget{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
