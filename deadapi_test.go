package repro

// The dead-API gate: every exported package-level name and every exported
// method of a non-main package in this module must be referenced by some
// non-test file of the module (bench/, cmd/ and examples/ included). A name
// only tests reach is deleted, un-exported, or moved to an export_test.go;
// the few deliberate exceptions are listed with a reason in
// testdata/deadapi.allow.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestNoTestOnlyExportedAPI(t *testing.T) {
	dead, err := deadAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow("testdata/deadapi.allow")
	if err != nil {
		t.Fatal(err)
	}
	matched := make(map[string]bool)
	for _, name := range dead {
		ok := false
		for _, pat := range allow {
			if m, _ := path.Match(pat, name); m {
				matched[pat], ok = true, true
			}
		}
		if !ok {
			t.Errorf("%s is exported but no non-test file references it: delete it, un-export it, or move it to an export_test.go", name)
		}
	}
	for _, pat := range allow {
		if !matched[pat] {
			t.Errorf("testdata/deadapi.allow: %s matches nothing the gate reports; drop the line", pat)
		}
	}
}

// TestDeadAPIFixture runs the gate on a small module with one case of each
// kind the gate must flag and each kind it must not.
func TestDeadAPIFixture(t *testing.T) {
	dead, err := deadAPI("testdata/deadapi")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib.Unused", "lib.hidden.Exported"}
	if !slices.Equal(dead, want) {
		t.Fatalf("dead API = %q, want %q", dead, want)
	}
}

// readAllow returns the patterns of an allow file: the first field of each
// non-blank, non-comment line, which must be followed by a reason.
func readAllow(file string) ([]string, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pats []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: %q has no reason", file, n, line)
		}
		pats = append(pats, fields[0])
	}
	return pats, sc.Err()
}

// listedPkg is the part of `go list -json` output the gate reads.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// deadAPI type-checks every non-test package of the module rooted at dir
// and returns, sorted, the exported names no non-test file references, as
// "pkg.Name" or "pkg.Type.Method". Uses of a generic function or method
// resolve to its origin; a method whose type implements an interface that
// has a method of that name (an interface declared in the module or in any
// package it imports) counts as used.
func deadAPI(dir string) ([]string, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.Bytes())
	}
	// -deps lists every package after its dependencies.
	var mod []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if !p.Standard {
			mod = append(mod, p)
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(p string) (*types.Package, error) {
		if pkg, ok := checked[p]; ok {
			return pkg, nil
		}
		return std.Import(p)
	})
	used := make(map[types.Object]bool)
	ifaces := make(map[*types.Interface]bool)
	var libs []*types.Package
	for _, p := range mod {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		if p.Name != "main" {
			libs = append(libs, pkg)
		}
		for _, obj := range info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			used[obj] = true
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
		for _, dep := range pkg.Imports() {
			walk(dep)
		}
	}
	for _, pkg := range checked {
		walk(pkg)
	}

	satisfies := func(n *types.Named, m *types.Func) bool {
		if n.TypeParams().Len() > 0 {
			return false
		}
		for it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
				continue
			}
			if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
				return true
			}
		}
		return false
	}
	var dead []string
	for _, pkg := range libs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				dead = append(dead, pkg.Name()+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				if m.Exported() && !used[m] && !satisfies(n, m) {
					dead = append(dead, pkg.Name()+"."+name+"."+m.Name())
				}
			}
		}
	}
	slices.Sort(dead)
	return dead, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
