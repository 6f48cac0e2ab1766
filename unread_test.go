package lockss

// The unread gate fails on any function, method or struct field that the
// module's non-test code declares and never reads. Tests do not count as
// readers: an accessor only a test calls is API the product does not use,
// so the test should assert through the product's own surface instead.
// The gate type-checks every non-test package outside bench/ (bench/ is its
// own module) and the standard library from source, so it needs nothing
// beyond the Go toolchain's GOROOT.
//
// A declaration counts as read when product code reads it:
//   - a function or method is read when it is referenced (called, or taken
//     as a value); a method is also read when it satisfies an interface
//     method that product code calls, or a standard-library interface
//     (String, Error, Read, ServeHTTP, MarshalJSON, ...), since the
//     standard library calls those;
//   - a field is read when it is read: the left side of an assignment or
//     of ++/--, and a key in a composite literal, are writes;
//   - an embedded field, a field with a struct tag (reflection readers such
//     as encoding/json) and a field of a struct used as a map key are read.
//
// Generic declarations are matched through Origin. What the gate flags but
// must stay is named in testdata/unread_allowlist.txt, one
// "pkg.Recv.Name  reason" line each; an entry that names nothing, or a
// declaration that is now read, fails the gate too.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const unreadAllowlistPath = "testdata/unread_allowlist.txt"

func TestNoUnreadDeclarations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	fset := token.NewFileSet()
	src, err := parseModule(fset, ".", "lockss")
	if err != nil {
		t.Fatal(err)
	}
	decls, err := unreadDecls(fset, src)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(unreadAllowlistPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range unreadProblems(decls, allow) {
		t.Error(p)
	}
}

// decl is one function, method or struct field of product code.
type decl struct {
	key  string // pkg.Name, pkg.Recv.Name or pkg.Struct.field
	pos  token.Position
	read bool
}

// unreadProblems lists each unread declaration the allowlist does not name,
// and each allowlist entry that names nothing or names a read declaration.
func unreadProblems(decls []decl, allow map[string]string) []string {
	var out []string
	readByKey := map[string]bool{}
	for _, d := range decls {
		read, seen := readByKey[d.key]
		readByKey[d.key] = d.read && (read || !seen)
		if _, ok := allow[d.key]; !ok && !d.read {
			out = append(out, fmt.Sprintf("%s: %s is never read by non-test code; delete it, or name it in %s with a reason", d.pos, d.key, unreadAllowlistPath))
		}
	}
	for _, key := range slices.Sorted(maps.Keys(allow)) {
		read, seen := readByKey[key]
		switch {
		case !seen:
			out = append(out, fmt.Sprintf("%s: %s names no declaration", unreadAllowlistPath, key))
		case read:
			out = append(out, fmt.Sprintf("%s: %s is read now; drop its line", unreadAllowlistPath, key))
		}
	}
	return out
}

func readAllowlist(name string) (map[string]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", name, n, key)
		}
		allow[key] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}

func isProductFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// parseModule parses the non-test files of every package under root that
// the default build context selects, keyed by import path. It skips
// testdata, hidden directories and the separate bench module.
func parseModule(fset *token.FileSet, root, modPath string) (map[string][]*ast.File, error) {
	src := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || name == "bench" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		importPath := path.Join(modPath, filepath.ToSlash(dir))
		for _, e := range entries {
			if !isProductFile(e.Name()) {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
				if err != nil {
					return err
				}
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			src[importPath] = append(src[importPath], f)
		}
		return nil
	})
	return src, err
}

// loader type-checks the product packages in src with full bodies and every
// other import (the standard library) from GOROOT source, signatures only.
type loader struct {
	fset  *token.FileSet
	src   map[string][]*ast.File
	ctxt  build.Context
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *loader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	if files, ok := l.src[path]; ok {
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		l.infos[path] = info
		return l.check(path, files, info)
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	bp, err := l.ctxt.Import(path, dir, 0)
	if err != nil {
		return nil, err
	}
	if p := l.pkgs[bp.ImportPath]; p != nil {
		return p, nil
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return l.check(bp.ImportPath, files, nil)
}

func (l *loader) check(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	conf := types.Config{Importer: l, IgnoreFuncBodies: info == nil}
	p, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// unreadDecls type-checks src and classifies every function, method and
// struct field it declares as read or unread by the code in src.
func unreadDecls(fset *token.FileSet, src map[string][]*ast.File) ([]decl, error) {
	l := &loader{fset: fset, src: src, ctxt: build.Default, pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	l.ctxt.CgoEnabled = false
	paths := slices.Sorted(maps.Keys(src))
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}

	read := map[types.Object]bool{}
	// byName holds, by method name, the interfaces whose methods get called:
	// every exported standard-library interface (the standard library calls
	// them) and every interface whose method product code calls.
	byName := map[string][]*types.Interface{}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	byName["Error"] = []*types.Interface{errIface}
	for path, p := range l.pkgs {
		if _, ok := src[path]; ok {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					byName[iface.Method(i).Name()] = append(byName[iface.Method(i).Name()], iface)
				}
			}
		}
	}
	var markKey func(t types.Type, seen map[types.Type]bool)
	markKey = func(t types.Type, seen map[types.Type]bool) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
				markKey(u.Field(i).Type(), seen)
			}
		case *types.Array:
			markKey(u.Elem(), seen)
		}
	}
	for _, p := range paths {
		info := l.infos[p]
		writes := map[*ast.Ident]bool{}
		for _, f := range src[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							markWritten(writes, lhs)
						}
					}
				case *ast.IncDecStmt:
					markWritten(writes, n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						markWritten(writes, n.Key)
						markWritten(writes, n.Value)
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				}
				return true
			})
		}
		for id, obj := range info.Uses {
			switch obj := obj.(type) {
			case *types.Func:
				fn := obj.Origin()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					iface := recv.Type().Underlying().(*types.Interface)
					byName[fn.Name()] = append(byName[fn.Name()], iface)
				}
				read[fn] = true
			case *types.Var:
				if obj.IsField() && !writes[id] {
					read[obj.Origin()] = true
				}
			}
		}
		for _, tv := range info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				markKey(m.Key(), map[types.Type]bool{})
			}
		}
	}

	// A type whose method set implements an interface that carries a called
	// method reads every method of that interface, promoted ones included.
	for _, p := range paths {
		for _, obj := range l.infos[p].Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() > 0 {
				continue // a generic type's methods are read through Origin
			}
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			checked := map[*types.Interface]bool{}
			for i := 0; i < ms.Len(); i++ {
				for _, iface := range byName[ms.At(i).Obj().Name()] {
					if checked[iface] {
						continue
					}
					checked[iface] = true
					if !types.Implements(ptr, iface) {
						continue
					}
					for j := 0; j < iface.NumMethods(); j++ {
						m := iface.Method(j)
						read[ms.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func).Origin()] = true
					}
				}
			}
		}
	}

	var decls []decl
	for _, p := range paths {
		info, pkgName := l.infos[p], path.Base(p)
		for _, f := range src[p] {
			owner := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						owner[st] = n.Name.Name
					}
				case *ast.FuncDecl:
					if n.Recv == nil && (n.Name.Name == "init" || n.Name.Name == "main" && l.pkgs[p].Name() == "main") {
						return true
					}
					fn := info.Defs[n.Name].(*types.Func)
					key := pkgName + "." + n.Name.Name
					if n.Recv != nil {
						key = pkgName + "." + recvName(fn) + "." + n.Name.Name
					}
					decls = append(decls, decl{key, fset.Position(n.Name.Pos()), read[fn]})
				case *ast.StructType:
					name, ok := owner[n]
					if !ok {
						name = fmt.Sprintf("struct@%s:%d", filepath.Base(fset.Position(n.Pos()).Filename), fset.Position(n.Pos()).Line)
					}
					for _, field := range n.Fields.List {
						if field.Tag != nil {
							continue
						}
						for _, id := range field.Names {
							if id.Name != "_" {
								decls = append(decls, decl{pkgName + "." + name + "." + id.Name, fset.Position(id.Pos()), read[info.Defs[id]]})
							}
						}
					}
				}
				return true
			})
		}
	}
	return decls, nil
}

// markWritten records the field an assignment's left side writes: x.f in
// x.f = v, and x.f in x.f[i] = v, which writes into f without reading it.
func markWritten(writes map[*ast.Ident]bool, e ast.Expr) {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		writes[sel.Sel] = true
	}
}

func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// TestUnreadClassifier pins the gate's rules on a small in-memory package.
func TestUnreadClassifier(t *testing.T) {
	const a = `package a

type Iface interface{ Called() }

type T struct {
	onlyAssigned    int
	onlyIncremented int
	onlyLiteral     int
	Tagged          int ` + "`json:\"tagged\"`" + `
	Embedded
	read int
}

type Embedded struct{ X int }

type key struct{ p, q int }

type G[E any] struct{ v E }

func (g *G[E]) Get() E { return g.v }

func (T) Unread()   {}
func (T) OnlyTest() {}
func (T) Called()   {}

func init() {
	t := T{onlyLiteral: 1}
	t.onlyAssigned = 2
	t.onlyIncremented++
	var i Iface = t
	i.Called()
	m := map[key]int{}
	m[key{1, 2}] = 3
	var g G[int]
	_ = t.read + len(m) + g.Get() + t.X
}
`
	const aTest = `package a

func callOnlyTest() { T{}.OnlyTest() }
`
	fset := token.NewFileSet()
	src := map[string][]*ast.File{}
	for name, text := range map[string]string{"a.go": a, "a_test.go": aTest} {
		if !isProductFile(name) {
			continue
		}
		f, err := parser.ParseFile(fset, name, text, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		src["m/a"] = append(src["m/a"], f)
	}
	decls, err := unreadDecls(fset, src)
	if err != nil {
		t.Fatal(err)
	}
	var unread []string
	for _, d := range decls {
		if !d.read {
			unread = append(unread, d.key)
		}
	}
	slices.Sort(unread)
	want := []string{"a.T.OnlyTest", "a.T.Unread", "a.T.onlyAssigned", "a.T.onlyIncremented", "a.T.onlyLiteral"}
	if !slices.Equal(unread, want) {
		t.Errorf("unread = %v, want %v", unread, want)
	}

	problems := unreadProblems(decls, map[string]string{"a.T.Unread": "kept", "a.T.read": "stale", "a.Gone": "stale"})
	joined := strings.Join(problems, "\n")
	for _, p := range []string{"a.T.read is read now", "a.Gone names no declaration", "a.T.onlyAssigned is never read"} {
		if !strings.Contains(joined, p) {
			t.Errorf("problems miss %q:\n%s", p, joined)
		}
	}
	if strings.Contains(joined, "a.T.Unread") || len(problems) != len(want)-1+2 {
		t.Errorf("want the four unlisted unread declarations and the two stale lines, got:\n%s", joined)
	}
}
