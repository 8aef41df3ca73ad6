package router

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// soiImports walks the non-test import graph of the module package pkg
// (a "soi/..." path) and returns every module package it reaches, mapped to
// the package that first imported it.
func soiImports(t *testing.T, pkg string) map[string]string {
	t.Helper()
	root := filepath.Join("..", "..")
	seen := map[string]string{pkg: ""}
	queue := []string{pkg}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		bp, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(p, "soi/")), 0)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, imp := range bp.Imports {
			if _, ok := seen[imp]; !ok && strings.HasPrefix(imp, "soi/") {
				seen[imp] = p
				queue = append(queue, imp)
			}
		}
	}
	return seen
}

// TestGatewayImportBoundary: soigw routes and merges /v1 answers; it never
// computes one. It shares the wire contract (internal/api) with soid and
// must link none of the daemon or estimator packages.
func TestGatewayImportBoundary(t *testing.T) {
	deps := soiImports(t, "soi/cmd/soigw")
	if _, ok := deps["soi/internal/router"]; !ok {
		t.Fatalf("import walk from soigw missed soi/internal/router; found only %v", deps)
	}
	for _, name := range []string{
		"server", "core", "index", "cascade", "sketch", "infmax", "reliability",
		"jaccard", "scc", "worlds", "pool", "rng", "blockfile",
	} {
		pkg := "soi/internal/" + name
		if _, ok := deps[pkg]; !ok {
			continue
		}
		chain := pkg
		for p := deps[pkg]; p != ""; p = deps[p] {
			chain = p + " → " + chain
		}
		t.Errorf("soigw links %s: %s", pkg, chain)
	}
}

// TestDaemonImportBoundary: the daemon skeleton (listener, debug surface,
// request envelope) is shared by soid, soigw and the batch CLIs, so it must
// reach neither daemon's own package nor any estimator.
func TestDaemonImportBoundary(t *testing.T) {
	deps := soiImports(t, "soi/internal/daemon")
	for _, name := range []string{
		"server", "router", "core", "index", "cascade", "sketch", "infmax", "reliability",
		"jaccard", "scc", "worlds", "pool", "rng", "blockfile",
	} {
		pkg := "soi/internal/" + name
		if _, ok := deps[pkg]; !ok {
			continue
		}
		chain := pkg
		for p := deps[pkg]; p != ""; p = deps[p] {
			chain = p + " → " + chain
		}
		t.Errorf("internal/daemon links %s: %s", pkg, chain)
	}
}

// TestAPIImportsOnlyStdlib: the wire contract is shared by both tiers, so
// it must not pull any module or third-party package into either.
func TestAPIImportsOnlyStdlib(t *testing.T) {
	bp, err := build.ImportDir(filepath.Join("..", "api"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range bp.Imports {
		if strings.HasPrefix(imp, "soi/") || strings.Contains(strings.Split(imp, "/")[0], ".") {
			t.Errorf("internal/api imports %s; want the standard library only", imp)
		}
	}
}
