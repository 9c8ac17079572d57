package scibench_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// facadeNames returns the sorted exported top-level names of the
// package's facade file.
func facadeNames(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "scibench.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}

// TestFacadeSurface pins the public surface: every exported name of
// scibench.go must be listed in testdata/facade_api.txt and vice versa,
// so adding or removing an export is a reviewed change to that file.
func TestFacadeSurface(t *testing.T) {
	data, err := os.ReadFile("testdata/facade_api.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(data))
	got := facadeNames(t)
	for _, n := range got {
		if _, found := slices.BinarySearch(want, n); !found {
			t.Errorf("export %s is not in testdata/facade_api.txt", n)
		}
	}
	for _, n := range want {
		if _, found := slices.BinarySearch(got, n); !found {
			t.Errorf("testdata/facade_api.txt lists %s, which scibench.go does not export", n)
		}
	}
	if !slices.IsSorted(want) {
		t.Error("testdata/facade_api.txt is not sorted")
	}
}
