package repro

// The dead-API gate: every exported package-level name and every exported
// method of a non-main package in this module must be referenced by some
// non-test file of the module (bench/, cmd/ and examples/ included), and
// every exported field of an exported struct type there must be written by
// one. A name only tests reach is deleted, un-exported, or moved to an
// export_test.go; a field no caller sets becomes a constant; the few
// deliberate exceptions are listed with a reason in testdata/deadapi.allow.

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
			t.Errorf("%s is exported but no non-test file references it (a name) or writes it (a field): delete it, un-export it, make it a constant, or move it to an export_test.go", name)
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
	want := []string{"lib.Knobs.Never", "lib.Knobs.TestOnly", "lib.Unused", "lib.hidden.Exported"}
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
// "pkg.Name" or "pkg.Type.Method", and the exported fields of exported
// struct types no non-test file writes, as "pkg.Type.Field". Uses of a
// generic function, method or field resolve to its origin; a method whose
// type implements an interface that has a method of that name (an interface
// declared in the module or in any package it imports) counts as used. A
// field is written by a composite-literal element, by being the target of
// an assignment or ++/-- (also through index and paren expressions), by
// being the operand of &, or by being the addressable receiver of a
// pointer method; decoding JSON into it is not a write.
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
	written := make(map[*types.Var]bool)
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
			Uses:       make(map[*ast.Ident]types.Object),
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
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
		for _, f := range files {
			markWrites(f, info, written)
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
			st, ok := n.Underlying().(*types.Struct)
			if !ok || !tn.Exported() {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !written[f] {
					dead = append(dead, pkg.Name()+"."+name+"."+f.Name())
				}
			}
		}
	}
	slices.Sort(dead)
	return dead, nil
}

// markWrites records in written every struct field that file writes.
func markWrites(file *ast.File, info *types.Info, written map[*types.Var]bool) {
	// mark records the field e selects, looking through parens and index
	// expressions, if it selects one.
	mark := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					written[sel.Obj().(*types.Var).Origin()] = true
				}
				return
			default:
				return
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			t := info.Types[x].Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					written[info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
				} else {
					written[st.Field(i).Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				mark(x.X)
			}
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.MethodVal {
				break
			}
			recv := sel.Obj().Type().(*types.Signature).Recv()
			if _, ptr := recv.Type().(*types.Pointer); !ptr {
				break
			}
			if _, ptr := info.Types[x.X].Type.Underlying().(*types.Pointer); !ptr {
				mark(x.X)
			}
		}
		return true
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
