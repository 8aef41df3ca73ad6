package router

import (
	"go/build"
	"path/filepath"
	"slices"
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

// importChain renders how the walk reached pkg: root → ... → pkg.
func importChain(deps map[string]string, pkg string) string {
	chain := pkg
	for p := deps[pkg]; p != ""; p = deps[p] {
		chain = p + " → " + chain
	}
	return chain
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
		t.Errorf("soigw links %s: %s", pkg, importChain(deps, pkg))
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
		t.Errorf("internal/daemon links %s: %s", pkg, importChain(deps, pkg))
	}
}

// TestAPIImportsOnlyStdlib: the wire contract and the bound derivations
// are shared by both tiers and the tests, so neither may pull any module or
// third-party package into them.
func TestAPIImportsOnlyStdlib(t *testing.T) {
	for _, name := range []string{"api", "bound"} {
		bp, err := build.ImportDir(filepath.Join("..", name), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range bp.Imports {
			if strings.HasPrefix(imp, "soi/") || strings.Contains(strings.Split(imp, "/")[0], ".") {
				t.Errorf("internal/%s imports %s; want the standard library only", name, imp)
			}
		}
	}
}

// TestDaemonsLinkNoTesting: soid serves bounds from internal/bound, not
// from the test-only statcheck, so no module package either daemon reaches
// imports testing.
func TestDaemonsLinkNoTesting(t *testing.T) {
	for _, cmd := range []string{"soi/cmd/soid", "soi/cmd/soigw"} {
		deps := soiImports(t, cmd)
		for pkg := range deps {
			bp, err := build.ImportDir(filepath.Join("..", "..", strings.TrimPrefix(pkg, "soi/")), 0)
			if err != nil {
				t.Fatalf("%s: %v", pkg, err)
			}
			if slices.Contains(bp.Imports, "testing") {
				t.Errorf("%s links testing: %s → testing", cmd, importChain(deps, pkg))
			}
		}
	}
}
