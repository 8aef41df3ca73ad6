package soi_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite api.txt from the current facade surface")

// TestAPISurface locks the exported facade surface to the committed api.txt:
// any addition, removal, or signature change to package soi shows up as a
// reviewable diff in the same commit. Regenerate with
//
//	go test -run TestAPISurface -update .
func TestAPISurface(t *testing.T) {
	got := renderAPISurface(t)
	if *updateAPI {
		if err := os.WriteFile("api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatalf("reading api.txt (regenerate with go test -run TestAPISurface -update .): %v", err)
	}
	want := string(wantBytes)
	if got != want {
		t.Fatalf("exported API surface changed; review the diff and regenerate api.txt with\n"+
			"\tgo test -run TestAPISurface -update .\n\n--- api.txt\n+++ current\n%s",
			surfaceDiff(want, got))
	}
}

// registryOwners are the exported structs that may hold a
// *telemetry.Registry: the daemons, the gateway, the tracer and the command
// lifecycles that create or serve a registry. Every other computation reads
// its registry from its ctx (telemetry.FromContext) or, when it takes no
// ctx, from the index or sketch it queries.
var registryOwners = map[string]bool{
	"server.Config":        true,
	"router.Config":        true,
	"trace.Options":        true,
	"daemon.Envelope":      true,
	"daemon.Lifecycle":     true,
	"cliutil.RunTelemetry": true,
}

// TestRegistryOwners fails when an exported struct under internal/ outside
// registryOwners gains an exported *telemetry.Registry field: a registry
// option field would be a second route, beside the context, by which
// metrics reach a computation. (Index and Sketch keep theirs unexported,
// behind SetTelemetry.)
func TestRegistryOwners(t *testing.T) {
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				name := f.Name.Name + "." + ts.Name.Name
				for _, field := range st.Fields.List {
					exported := len(field.Names) == 0 // embedded: named Registry
					for _, n := range field.Names {
						exported = exported || n.IsExported()
					}
					if exported && isRegistryPtr(field.Type, f.Name.Name) && !registryOwners[name] {
						found = append(found, fmt.Sprintf("%s (%s)", name, fset.Position(field.Pos())))
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) > 0 {
		t.Fatalf("exported structs outside the registry owners hold a *telemetry.Registry; "+
			"read it from the ctx (telemetry.FromContext) instead:\n\t%s", strings.Join(found, "\n\t"))
	}
}

// isRegistryPtr reports whether expr is *telemetry.Registry (*Registry inside
// package telemetry itself).
func isRegistryPtr(expr ast.Expr, pkg string) bool {
	star, ok := expr.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch x := star.X.(type) {
	case *ast.SelectorExpr:
		id, ok := x.X.(*ast.Ident)
		return ok && id.Name == "telemetry" && x.Sel.Name == "Registry"
	case *ast.Ident:
		return pkg == "telemetry" && x.Name == "Registry"
	}
	return false
}

// renderAPISurface parses the non-test files of package soi and renders
// every exported declaration, sorted, with bodies and comments stripped.
func renderAPISurface(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["soi"]
	if !ok {
		t.Fatalf("package soi not found in %v", pkgs)
	}

	var decls []string
	cfg := printer.Config{Mode: printer.UseSpaces, Tabwidth: 8}
	render := func(node any) string {
		var buf bytes.Buffer
		if err := cfg.Fprint(&buf, fset, node); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil && !exportedRecv(d.Recv) {
					continue
				}
				fn := *d
				fn.Body = nil
				fn.Doc = nil
				decls = append(decls, render(&fn))
			case *ast.GenDecl:
				kept := exportedSpecs(d)
				if len(kept) == 0 {
					continue
				}
				gd := *d
				gd.Doc = nil
				gd.Specs = kept
				// Force the canonical parenthesized form only when multiple
				// specs remain, so single consts don't flip-flop formats.
				if len(kept) == 1 {
					gd.Lparen = token.NoPos
					gd.Rparen = token.NoPos
				}
				decls = append(decls, render(&gd))
			}
		}
	}

	sort.Strings(decls)
	var b strings.Builder
	b.WriteString("# Exported API of package soi. Generated by TestAPISurface; do not edit.\n")
	b.WriteString("# Regenerate: go test -run TestAPISurface -update .\n\n")
	for _, d := range decls {
		b.WriteString(d)
		b.WriteString("\n\n")
	}
	return b.String()
}

func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) != 1 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

func exportedSpecs(d *ast.GenDecl) []ast.Spec {
	var kept []ast.Spec
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if sp.Name.IsExported() {
				cp := *sp
				cp.Doc = nil
				cp.Comment = nil
				kept = append(kept, &cp)
			}
		case *ast.ValueSpec:
			anyExported := false
			for _, name := range sp.Names {
				if name.IsExported() {
					anyExported = true
				}
			}
			if anyExported {
				cp := *sp
				cp.Doc = nil
				cp.Comment = nil
				kept = append(kept, &cp)
			}
		}
	}
	return kept
}

// surfaceDiff renders a minimal line diff (want vs got) good enough to spot
// the changed declaration without pulling in a diff library.
func surfaceDiff(want, got string) string {
	wantLines := strings.Split(want, "\n")
	gotLines := strings.Split(got, "\n")
	wantSet := make(map[string]bool, len(wantLines))
	for _, l := range wantLines {
		wantSet[l] = true
	}
	gotSet := make(map[string]bool, len(gotLines))
	for _, l := range gotLines {
		gotSet[l] = true
	}
	var b strings.Builder
	for _, l := range wantLines {
		if !gotSet[l] {
			fmt.Fprintf(&b, "-%s\n", l)
		}
	}
	for _, l := range gotLines {
		if !wantSet[l] {
			fmt.Fprintf(&b, "+%s\n", l)
		}
	}
	if b.Len() == 0 {
		return "(lines reordered)"
	}
	return b.String()
}
