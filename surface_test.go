package pareto

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The rule this file keeps: a top-level declaration under internal/
// (func, method, type, var or const, exported or not) is referenced by
// at least one non-test file of the repository — cmd/, examples/ and
// benchmark/ count as callers; _test.go files, and any file outside
// those directories and internal/ (the root package declares nothing),
// do not. A method is referenced when a non-test selector resolves to
// it (type-checked, so another type's method of the same name is not
// it), or when it satisfies a method of an interface a non-test file
// declares and its type, or a type embedding it, implements.
// A test-support package — one that _test.go files import and no
// non-test file does, such as faultnet — is not covered: all of it is
// test code kept in a package so that several packages' tests share
// it.
// What only tests reference is a test helper (it lives in a _test.go /
// export_test.go file) or dead (it is deleted). The few declarations
// that are neither are listed here, each with its reason; an entry
// that no longer exists, or that has gained a caller, fails the test
// too, so the list cannot outlive its reasons.
var surfaceAllow = map[string]string{
	"sketch.ExactJaccard":         "oracle the sketch, pivots and datasets tests compare similarity against; a _test.go file of one package cannot serve the others",
	"telemetry.Snapshot.FindSpan": "span lookup the cluster, core and telemetry tests use to assert what a run recorded",
}

// surfaceAllowCap bounds surfaceAllow; it is lowered whenever entries
// go, never raised.
const surfaceAllowCap = 2

const surfaceModule = "pareto"

// stdlibInterfaceMethods are method names that satisfy a standard-
// library interface the repository's types are passed as (error,
// fmt.Stringer, io.Reader/Writer/Closer, http.Handler, sort.Interface,
// net.Listener): the library calls them, so no selector in the tree
// has to.
var stdlibInterfaceMethods = []string{
	"Error", "String", "Read", "Write", "Close", "ServeHTTP", "Len", "Less", "Swap", "Accept",
}

// surfaceScan is what one pass over a file set finds: where each
// name a rule covers is (a top-level declaration, or an option field),
// which of them some non-test file satisfies the rule for, and how a
// violation is worded.
type surfaceScan struct {
	decls map[string]token.Position
	used  map[string]bool
	unset string
}

// parsedFile is one non-test file: its directory relative to the
// module root, its syntax, and its import table (local name →
// directory below the module root, module imports only).
type parsedFile struct {
	dir     string
	file    *ast.File
	imports map[string]string
}

// callerRoots are the top-level directories whose non-test files the
// rules read.
var callerRoots = []string{"internal", "cmd", "examples", "benchmark"}

// parseNonTest parses every file of files (slash-separated path
// relative to the module root → source) under callerRoots except
// _test.go files.
func parseNonTest(files map[string]string) (*token.FileSet, []parsedFile, error) {
	fset := token.NewFileSet()
	var out []parsedFile
	for name, src := range files {
		root, _, _ := strings.Cut(name, "/")
		if strings.HasSuffix(name, "_test.go") || !slices.Contains(callerRoots, root) {
			continue
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			if !strings.HasPrefix(ip, surfaceModule+"/") {
				continue
			}
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = strings.TrimPrefix(ip, surfaceModule+"/")
		}
		out = append(out, parsedFile{path.Dir(name), f, imports})
	}
	return fset, out, nil
}

// surfaceKey names a declaration: the package directory below
// internal/, then the receiver type for a method, then the name.
func surfaceKey(dir, recv, name string) string {
	k := strings.TrimPrefix(dir, "internal/") + "."
	if recv != "" {
		k += recv + "."
	}
	return k + name
}

// recvName returns the receiver's type name, through a pointer and
// type parameters.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// checkedFiles is one parse and type-check of a file set (slash-
// separated path relative to the module root → source), which the
// declaration and field rules both read.
type checkedFiles struct {
	fset    *token.FileSet
	nonTest []parsedFile
	info    *types.Info
	// testSupport holds the internal/ package directories that _test.go
	// files import and no non-test file does.
	testSupport map[string]bool
}

// checkFiles parses files and type-checks their non-test packages.
func checkFiles(files map[string]string) (*checkedFiles, error) {
	fset, nonTest, err := parseNonTest(files)
	if err != nil {
		return nil, err
	}
	c := &checkedFiles{fset: fset, nonTest: nonTest, testSupport: map[string]bool{}, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for name, src := range files {
		if !strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, im := range f.Imports {
			if dir, ok := strings.CutPrefix(strings.Trim(im.Path.Value, `"`), surfaceModule+"/internal/"); ok {
				c.testSupport["internal/"+dir] = true
			}
		}
	}
	for _, p := range nonTest {
		for _, dir := range p.imports {
			delete(c.testSupport, dir)
		}
	}
	return c, checkPackages(fset, nonTest, c.info)
}

// surface applies the declaration rule: a bare identifier references
// the same-named declaration of its own package, pkg.Name references
// package pkg as the file's import table resolves it, and a method is
// referenced as the rule says. A reference made from inside the
// declaration it names (recursion) does not count, and neither does
// one from a _test.go file.
func (c *checkedFiles) surface() *surfaceScan {
	fset, info := c.fset, c.info
	s := &surfaceScan{decls: map[string]token.Position{}, used: map[string]bool{}, unset: "has no reference outside _test.go files"}
	methods := map[string][]string{} // method name → keys
	methodKeys := map[*types.Func]string{}
	for _, p := range c.nonTest {
		if !strings.HasPrefix(p.dir, "internal/") || c.testSupport[p.dir] {
			continue
		}
		add := func(recv string, id *ast.Ident) {
			if id.Name == "_" {
				return
			}
			k := surfaceKey(p.dir, recv, id.Name)
			s.decls[k] = fset.Position(id.Pos())
			if recv != "" {
				methods[id.Name] = append(methods[id.Name], k)
				methodKeys[info.Defs[id].(*types.Func)] = k
			}
		}
		for _, d := range p.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					continue
				}
				add(recvName(d), d.Name)
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						add("", sp.Name)
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add("", id)
						}
					}
				}
			}
		}
	}

	useMethod := func(fn *types.Func) {
		if k, ok := methodKeys[fn.Origin()]; ok {
			s.used[k] = true
		}
	}
	for _, name := range stdlibInterfaceMethods {
		for _, k := range methods[name] {
			s.used[k] = true
		}
	}
	// Interface satisfaction: every non-test interface against every
	// named type a non-test file declares, the method that satisfies
	// each of its methods looked up through embedding.
	var ifaces []*types.Interface
	var named []*types.Named
	for _, p := range c.nonTest {
		ast.Inspect(p.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				if it, ok := info.Types[n].Type.(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			case *ast.TypeSpec:
				if tn, ok := info.Defs[n.Name].(*types.TypeName); ok && !tn.IsAlias() {
					if nt, ok := tn.Type().(*types.Named); ok && !types.IsInterface(nt) && nt.TypeParams().Len() == 0 {
						named = append(named, nt)
					}
				}
			}
			return true
		})
	}
	for _, nt := range named {
		ptr := types.NewPointer(nt)
		mset := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if fn, ok := mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func); ok {
					useMethod(fn)
				}
			}
		}
	}
	for _, p := range c.nonTest {
		imports := p.imports
		// walk records what one part of a declaration references.
		// selfName is the package-level name, selfMethod the method,
		// that the declaration itself carries: its own recursion is not
		// a caller.
		var selfName string
		var selfMethod types.Object
		var walk func(root ast.Node)
		walk = func(root ast.Node) {
			if root == nil {
				return
			}
			ast.Inspect(root, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field:
					// Field, parameter and interface-method names
					// declare; only the type refers.
					walk(n.Type)
					return false
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := imports[x.Name]; ok {
							s.used[surfaceKey(dir, "", n.Sel.Name)] = true
							return false
						}
					}
					if sel := info.Selections[n]; sel != nil && sel.Obj() != selfMethod {
						if fn, ok := sel.Obj().(*types.Func); ok {
							useMethod(fn)
						}
					}
					walk(n.X)
					return false
				case *ast.Ident:
					if n.Name != selfName {
						s.used[surfaceKey(p.dir, "", n.Name)] = true
					}
				}
				return true
			})
		}
		for _, d := range p.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				selfName, selfMethod = d.Name.Name, nil
				if d.Recv != nil {
					selfName, selfMethod = "", info.Defs[d.Name]
					walk(d.Recv)
				}
				walk(d.Type)
				if d.Body != nil {
					walk(d.Body)
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						selfName, selfMethod = sp.Name.Name, nil
						if sp.TypeParams != nil {
							walk(sp.TypeParams)
						}
						walk(sp.Type)
					case *ast.ValueSpec:
						selfName, selfMethod = "", nil
						if len(sp.Names) == 1 {
							selfName = sp.Names[0].Name
						}
						walk(sp.Type)
						for _, v := range sp.Values {
							walk(v)
						}
					}
				}
			}
		}
	}
	return s
}

// violations lists, sorted, every name the rule covers that no non-test
// file satisfies it for and no allow-list entry excuses, and every
// allow-list entry that names nothing the rule covers, names something
// that now satisfies it, or gives no reason.
func (s *surfaceScan) violations(allow map[string]string) []string {
	var out []string
	for k, pos := range s.decls {
		if _, ok := allow[k]; !ok && !s.used[k] {
			out = append(out, fmt.Sprintf("%s (%s:%d) %s", k, pos.Filename, pos.Line, s.unset))
		}
	}
	for k, reason := range allow {
		switch _, ok := s.decls[k]; {
		case !ok:
			out = append(out, fmt.Sprintf("allow-list entry %s names nothing under internal/ the rule covers", k))
		case s.used[k]:
			out = append(out, fmt.Sprintf("allow-list entry %s is satisfied by a non-test file now; drop the entry", k))
		case reason == "":
			out = append(out, fmt.Sprintf("allow-list entry %s gives no reason", k))
		}
	}
	sort.Strings(out)
	return out
}

// repoFiles reads every .go file of the repository, keyed by its
// slash-separated path relative to the module root.
func repoFiles(t *testing.T) map[string]string {
	t.Helper()
	files, err := readRepoFiles()
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// checkedRepo parses and type-checks the repository once for every
// rule that reads types.
var checkedRepo = sync.OnceValues(func() (*checkedFiles, error) {
	files, err := readRepoFiles()
	if err != nil {
		return nil, err
	}
	return checkFiles(files)
})

func readRepoFiles() (map[string]string, error) {
	files := map[string]string{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			files[filepath.ToSlash(p)] = string(src)
		}
		return nil
	})
	return files, err
}

// TestInternalSurfaceHasCallers applies the rule to the repository.
// It is not skipped under -short: it type-checks the tree once, shared
// with TestOptionFieldsAreSet, in about a second.
func TestInternalSurfaceHasCallers(t *testing.T) {
	c, err := checkedRepo()
	if err != nil {
		t.Fatal(err)
	}
	s := c.surface()
	if len(surfaceAllow) > surfaceAllowCap {
		t.Errorf("allow-list has %d entries; the rule allows %d", len(surfaceAllow), surfaceAllowCap)
	}
	for _, v := range s.violations(surfaceAllow) {
		t.Error(v)
	}
}

// TestRootPackageDeclaresNothing: the root package is its package
// comment and the repository-wide tests. None of its non-test files
// declares or imports anything, and no file imports it: programs call
// the components under internal/ directly.
func TestRootPackageDeclaresNothing(t *testing.T) {
	fset := token.NewFileSet()
	for name, src := range repoFiles(t) {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(name, "/") && !strings.HasSuffix(name, "_test.go") && len(f.Decls) != 0 {
			t.Errorf("%s: the root package declares nothing, but this file has %d declarations", name, len(f.Decls))
		}
		for _, im := range f.Imports {
			if strings.Trim(im.Path.Value, `"`) == surfaceModule {
				t.Errorf("%s imports the root package", name)
			}
		}
	}
}

// The store's command rule: every name in kvstore's command table is
// sent by some program — a non-test file other than the table's own
// spells it as a string literal. A command no program sends is a table
// row, an engine case and tests kept for nobody; it is cut, and an old
// log holding it fails replay at that record. The commands kept
// without a sender are listed here with their reasons, and an entry
// that gains a sender or leaves the table fails the test too.
var unsentCmdAllow = map[string]string{
	"DBSIZE": "the key-count oracle of the distrib, barrier and history tests",
}

// unsentCmdAllowCap bounds unsentCmdAllow; it is lowered whenever
// entries go, never raised.
const unsentCmdAllowCap = 1

// cmdTableFile holds kvstore's cmdTable.
const cmdTableFile = "internal/kvstore/dispatch.go"

// TestEveryStoreCommandIsSent applies the command rule to the
// repository.
func TestEveryStoreCommandIsSent(t *testing.T) {
	fset, nonTest, err := parseNonTest(repoFiles(t))
	if err != nil {
		t.Fatal(err)
	}
	var table []string
	sent := map[string]bool{}
	for _, pf := range nonTest {
		inTable := fset.Position(pf.file.Pos()).Filename == cmdTableFile
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ValueSpec:
				if inTable && len(x.Names) == 1 && x.Names[0].Name == "cmdTable" && len(x.Values) == 1 {
					table = cmdTableNames(x.Values[0])
					return false
				}
			case *ast.BasicLit:
				if x.Kind == token.STRING && !inTable {
					s, _ := strconv.Unquote(x.Value)
					sent[s] = true
				}
			}
			return true
		})
	}
	if len(table) == 0 {
		t.Fatalf("no command names found in %s's cmdTable", cmdTableFile)
	}
	if len(unsentCmdAllow) > unsentCmdAllowCap {
		t.Errorf("command allow-list has %d entries; the rule allows %d", len(unsentCmdAllow), unsentCmdAllowCap)
	}
	for _, name := range table {
		switch _, allowed := unsentCmdAllow[name]; {
		case !sent[name] && !allowed:
			t.Errorf("%s: no program sends %s; cut the command, or list it in unsentCmdAllow with its reason", cmdTableFile, name)
		case sent[name] && allowed:
			t.Errorf("allow-list entry %s: a program sends it now; drop the entry", name)
		}
	}
	for name, reason := range unsentCmdAllow {
		if !slices.Contains(table, name) {
			t.Errorf("allow-list entry %s names no command in the table", name)
		} else if reason == "" {
			t.Errorf("allow-list entry %s gives no reason", name)
		}
	}
}

// cmdTableNames returns the name: fields of cmdTable's rows.
func cmdTableNames(rows ast.Expr) []string {
	var names []string
	ast.Inspect(rows, func(n ast.Node) bool {
		kv, ok := n.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "name" {
			if lit, ok := kv.Value.(*ast.BasicLit); ok {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					names = append(names, s)
				}
			}
		}
		return true
	})
	return names
}

// surfaceFixture is a small module the guard's own tests scan: package
// a declares, packages b and c and one command call, support is a
// package only a test imports and dead one nothing imports.
var surfaceFixture = map[string]string{
	"internal/a/a.go": `package a

func Called() { helper() }

func Orphan() {}

func helper() {}

func orphanHelper() {}

func loop(n int) { loop(n - 1) }

func OnlyTested() {}

func FromCmd() {}

type T struct{}

func (T) Run() {}

func (T) Lonely() {}

func (t T) Again() { t.Again() }

var Table = []int{1}

const unusedConst = 3

func (T) Listener() {}

func (T) Addr() {}

func (T) Get() {}

type Base struct{}

func (Base) Hello() {}

func (Base) Wave() {}

func (Base) Idle() {}
`,
	"internal/a/a_test.go": `package a

import "pareto/internal/support"

func useThem() { Orphan(); orphanHelper(); OnlyTested(); T{}.Lonely(); T{}.Get(); support.Helper() }
`,
	"internal/b/b.go": `package b

import (
	"net"

	"pareto/internal/a"
)

type Runner interface{ Run() }

type Greeter interface{ Hello() }

type Wrapper struct{ a.Base }

type Cache struct{}

func (Cache) Get() {}

func Orphan() {}

func Drive(r Runner, l net.Listener) {
	a.Called()
	Orphan()
	_ = a.Table
	_ = l.Addr()
	Cache{}.Get()
	Wrapper{}.Wave()
	var g Greeter = Wrapper{}
	g.Hello()
}
`,
	"internal/c/c.go": `package c

import other "pareto/internal/b"

var A struct{ OnlyTested func() }

func Go() { other.Drive(nil, nil); A.OnlyTested() }
`,
	"internal/support/support.go": `package support

func Helper() {}

type P struct{}

func (P) Listener() {}
`,
	"internal/dead/dead.go": `package dead

func Gone() {}
`,
	"cmd/tool/main.go": `package main

import (
	"pareto/internal/a"
	"pareto/internal/c"
)

func main() { a.FromCmd(); c.Go() }
`,
	"facade.go": `package pareto

import "pareto/internal/a"

var Orphan = a.Orphan
`,
}

// TestSurfaceScanRule proves the rule case by case on the fixture.
func TestSurfaceScanRule(t *testing.T) {
	c, err := checkFiles(surfaceFixture)
	if err != nil {
		t.Fatal(err)
	}
	s := c.surface()
	for _, c := range []struct {
		key    string
		named  bool
		reason string
	}{
		{"a.Orphan", true, "exported, called only by its own test, by b's same-named function and by a root-package file"},
		{"a.orphanHelper", true, "unexported, called only by a test"},
		{"a.loop", true, "its only caller is itself"},
		{"a.T.Again", true, "a method whose only caller is itself"},
		{"a.T.Lonely", true, "a method only a test calls"},
		{"a.OnlyTested", true, "c's A.OnlyTested is a field of another package, not a.OnlyTested"},
		{"a.unusedConst", true, "a constant nothing reads"},
		{"a.T.Listener", true, "b's net.Listener is an imported type's selector, not a.T's method"},
		{"a.T.Addr", true, "b's l.Addr() calls net.Listener's method of that name"},
		{"a.T.Get", true, "only a test calls it; b calls b.Cache's Get"},
		{"a.Base.Idle", true, "promoted into b.Wrapper, but nothing calls or requires it"},
		{"dead.Gone", true, "a package nothing imports is not test support: it stays under the rule"},
		{"a.Base.Hello", false, "promoted into b.Wrapper, which implements b.Greeter"},
		{"a.Base.Wave", false, "called through the embedding b.Wrapper"},
		{"b.Cache.Get", false, "b calls it"},
		{"a.Called", false, "b calls a.Called through its import table"},
		{"a.helper", false, "called by name inside its own package"},
		{"a.FromCmd", false, "a command outside internal/ is a caller"},
		{"a.T.Run", false, "no selector names it, but b.Runner declares a method Run"},
		{"a.T", false, "its methods' receivers name it"},
		{"a.Table", false, "b reads a.Table"},
		{"b.Orphan", false, "b calls its own Orphan"},
		{"b.Drive", false, "c calls it through the alias other"},
		{"c.Go", false, "the command calls it"},
	} {
		if _, ok := s.decls[c.key]; !ok {
			t.Errorf("%s: not found as a declaration", c.key)
		} else if named := !s.used[c.key]; named != c.named {
			t.Errorf("%s: named callerless = %v, want %v (%s)", c.key, named, c.named, c.reason)
		}
	}
	if _, ok := s.decls["tool.main"]; ok {
		t.Error("a declaration outside internal/ was put under the rule")
	}
	for _, k := range []string{"support.Helper", "support.P", "support.P.Listener"} {
		if _, ok := s.decls[k]; ok {
			t.Errorf("%s is under the rule; a package only _test.go files import is test support", k)
		}
	}
}

// TestSurfaceAllowListGoesStale: an entry excuses exactly one
// callerless declaration, and fails once that declaration is gone, has
// a caller, or the entry has lost its reason.
func TestSurfaceAllowListGoesStale(t *testing.T) {
	c, err := checkFiles(surfaceFixture)
	if err != nil {
		t.Fatal(err)
	}
	s := c.surface()
	all := map[string]string{
		"a.Orphan": "r", "a.orphanHelper": "r", "a.loop": "r", "a.T.Again": "r",
		"a.T.Lonely": "r", "a.OnlyTested": "r", "a.unusedConst": "r",
		"a.T.Listener": "r", "a.T.Addr": "r", "a.T.Get": "r", "a.Base.Idle": "r", "dead.Gone": "r",
	}
	if v := s.violations(all); len(v) != 0 {
		t.Fatalf("every callerless declaration is excused, yet: %q", v)
	}
	for _, c := range []struct {
		name    string
		mutate  func(allow map[string]string)
		wantSub string
	}{
		{"entry dropped", func(a map[string]string) { delete(a, "a.loop") }, "a.loop (internal/a/a.go:11) has no reference"},
		{"declaration gone", func(a map[string]string) { a["a.Deleted"] = "r" }, "a.Deleted names nothing"},
		{"now called", func(a map[string]string) { a["a.Called"] = "r" }, "a.Called is satisfied by a non-test file now"},
		{"no reason", func(a map[string]string) { a["a.loop"] = "" }, "a.loop gives no reason"},
	} {
		allow := map[string]string{}
		for k, r := range all {
			allow[k] = r
		}
		c.mutate(allow)
		v := s.violations(allow)
		if len(v) != 1 || !strings.Contains(v[0], c.wantSub) {
			t.Errorf("%s: violations %q, want exactly one containing %q", c.name, v, c.wantSub)
		}
	}
}

// The field rule: an exported field of an exported struct under
// internal/ whose name ends in Config or Options is set by some
// non-test file. A field is set by a composite-literal key naming it
// (in any package, its own included, whether the literal spells its
// type or elides it), or by an assignment, op-assignment or ++/--
// through a selector that denotes it, made outside its own package — a
// package filling in its own defaults does not set anything. The scan
// is type-checked, so a same-named field of another struct sets
// nothing. A field no program sets is a constant at its default, or
// its code path is dead; the fields that are neither are listed here
// with their reasons, and a stale entry fails like one of
// surfaceAllow's.
var fieldAllow = map[string]string{
	"kvstore.Options.OpTimeout":    "client deadline TestHungServerOpsBounded, TestSendArmsDeadline and the distrib and replan fault tests tighten so a stalled store fails an operation fast",
	"kvstore.Options.MaxRetries":   "retry budget TestClientSurvivesMisbehavingStore, TestClientTelemetry and the distrib and replan fault tests set to exercise the retry path",
	"kvstore.Options.RetryBackoff": "backoff TestClientSurvivesMisbehavingStore, TestClientTelemetry and the distrib and replan fault tests shorten",
	"kvstore.Options.MaxBackoff":   "backoff cap TestClientSurvivesMisbehavingStore and the distrib and replan fault tests shorten",
	"kvstore.Options.Dialer":       "fault hook: the fault tests dial through faultnet to drop, stall and crash connections",
}

// fieldAllowCap bounds fieldAllow; it is lowered whenever entries go,
// never raised.
const fieldAllowCap = 5

// isOptionStruct reports whether a type declaration is one the field
// rule covers.
func isOptionStruct(ts *ast.TypeSpec) (*ast.StructType, bool) {
	st, ok := ts.Type.(*ast.StructType)
	name := ts.Name.Name
	return st, ok && ts.Name.IsExported() && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options"))
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkPackages type-checks the non-test files of every package, one
// package per directory: module packages from source, each after the
// module packages it imports, and the standard library from the
// compiler's export data, located by one go list call for every
// standard-library import at once. Types, definitions, uses and
// selections go to info.
func checkPackages(fset *token.FileSet, nonTest []parsedFile, info *types.Info) error {
	files := map[string][]*ast.File{}
	deps := map[string][]string{}
	stdSet := map[string]bool{}
	for _, p := range nonTest {
		files[p.dir] = append(files[p.dir], p.file)
		for _, dir := range p.imports {
			deps[p.dir] = append(deps[p.dir], dir)
		}
		for _, im := range p.file.Imports {
			if ip := strings.Trim(im.Path.Value, `"`); !strings.HasPrefix(ip, surfaceModule+"/") && ip != "unsafe" {
				stdSet[ip] = true
			}
		}
	}
	exports, err := exportFiles(stdSet)
	if err != nil {
		return err
	}
	std := importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		f, ok := exports[ip]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", ip)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(ip string) (*types.Package, error) {
		dir, ok := strings.CutPrefix(ip, surfaceModule+"/")
		if !ok {
			return std.Import(ip)
		}
		if pkg := checked[dir]; pkg != nil {
			return pkg, nil
		}
		return nil, fmt.Errorf("%s is imported before it is checked", ip)
	})}
	visiting := map[string]bool{}
	var check func(dir string) error
	check = func(dir string) error {
		if checked[dir] != nil {
			return nil
		}
		if visiting[dir] {
			return fmt.Errorf("import cycle through %s", dir)
		}
		visiting[dir] = true
		for _, d := range deps[dir] {
			if err := check(d); err != nil {
				return err
			}
		}
		pkg, err := conf.Check(surfaceModule+"/"+dir, fset, files[dir], info)
		if err != nil {
			return err
		}
		checked[dir] = pkg
		return nil
	}
	dirs := make([]string, 0, len(files))
	for dir := range files {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if err := check(dir); err != nil {
			return err
		}
	}
	return nil
}

// exportFiles maps each import path to its compiled export data file,
// from one go list call.
func exportFiles(paths map[string]bool) (map[string]string, error) {
	out := map[string]string{}
	if len(paths) == 0 {
		return out, nil
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for ip := range paths {
		args = append(args, ip)
	}
	list, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		ip, file, _ := strings.Cut(line, "\t")
		out[ip] = file
	}
	return out, nil
}

// fields applies the field rule.
func (c *checkedFiles) fields() *surfaceScan {
	fset, nonTest, info := c.fset, c.nonTest, c.info
	s := &surfaceScan{decls: map[string]token.Position{}, used: map[string]bool{}, unset: "is set by no non-test file"}
	keys := map[*types.Var]string{} // option field → its key
	for _, p := range nonTest {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, d := range p.file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, sp := range gd.Specs {
				ts, ok := sp.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := isOptionStruct(ts)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.IsExported() {
							k := surfaceKey(p.dir, ts.Name.Name, id.Name)
							s.decls[k] = fset.Position(id.Pos())
							keys[info.Defs[id].(*types.Var)] = k
						}
					}
				}
			}
		}
	}

	// field returns the key of the option field obj denotes, if any.
	field := func(obj types.Object) (string, bool) {
		v, ok := obj.(*types.Var)
		if !ok {
			return "", false
		}
		k, ok := keys[v.Origin()]
		return k, ok
	}
	for _, p := range nonTest {
		pkg := surfaceModule + "/" + p.dir
		assigned := func(lhs ast.Expr) {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || info.Selections[sel] == nil {
				return
			}
			obj := info.Selections[sel].Obj()
			if k, ok := field(obj); ok && obj.Pkg().Path() != pkg {
				s.used[k] = true
			}
		}
		ast.Inspect(p.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if k, ok := field(info.Uses[id]); ok {
								s.used[k] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						assigned(lhs)
					}
				}
			case *ast.IncDecStmt:
				assigned(n.X)
			}
			return true
		})
	}
	return s
}

// TestOptionFieldsAreSet applies the field rule to the repository. Like
// the declaration rule it is never skipped.
func TestOptionFieldsAreSet(t *testing.T) {
	c, err := checkedRepo()
	if err != nil {
		t.Fatal(err)
	}
	s := c.fields()
	if len(fieldAllow) > fieldAllowCap {
		t.Errorf("field allow-list has %d entries; the rule allows %d", len(fieldAllow), fieldAllowCap)
	}
	for _, v := range s.violations(fieldAllow) {
		t.Error(v)
	}
}

// fieldFixture is a small module the field rule's own tests scan:
// package a declares the option structs, b sets fields from outside,
// c declares a look-alike field that d, importing both, assigns, and a
// command, an example and the benchmark set one field each.
var fieldFixture = map[string]string{
	"internal/a/a.go": `package a

type Config struct {
	OwnLiteral, OtherLiteral int
	Assigned, OpAssigned     int
	Incremented, Elided      int
	Defaulted, OnlyTested    int
	LookAlike                int
	FromCmd, FromExample     int
	FromBench                int
	unexported               int
}

type Options struct{ Set, Unset int }

type Plain struct{ Field int }

type hiddenConfig struct{ Field int }

func Default() Config { return Config{OwnLiteral: 1} }

func (c *Config) normalize() {
	if c.Defaulted == 0 {
		c.Defaulted = 3
	}
	c.OnlyTested++
	c.LookAlike += 2
}
`,
	"internal/a/a_test.go": `package a

var _ = Config{OnlyTested: 1}

func set(o *Options) { o.Unset = 1 }
`,
	"internal/b/b.go": `package b

import "pareto/internal/a"

func Use() {
	c := a.Config{OtherLiteral: 1}
	c.Assigned = 2
	c.OpAssigned += 3
	c.Incremented++
	_ = []a.Config{{Elided: 1}}
	_ = map[string]*a.Options{"x": {Set: 1}}
	_ = c
}
`,
	"internal/c/c.go": `package c

type Other struct{ LookAlike int }

var _ = Other{LookAlike: 1}
`,
	"internal/d/d.go": `package d

import (
	"pareto/internal/a"
	"pareto/internal/c"
)

func Use() {
	var o c.Other
	o.LookAlike = 1
	_, _ = o, a.Default()
}
`,
	"cmd/tool/main.go": `package main

import "pareto/internal/a"

var _ = a.Config{FromCmd: 1}
`,
	"examples/ex/main.go": `package main

import "pareto/internal/a"

func main() {
	var c a.Config
	c.FromExample = 1
	_ = c
}
`,
	"benchmark/bench.go": `package main

import "pareto/internal/a"

var _ = &a.Config{FromBench: 1}
`,
}

// TestFieldScanRule proves the field rule case by case on the fixture.
func TestFieldScanRule(t *testing.T) {
	c, err := checkFiles(fieldFixture)
	if err != nil {
		t.Fatal(err)
	}
	s := c.fields()
	for _, c := range []struct {
		key    string
		set    bool
		reason string
	}{
		{"a.Config.OwnLiteral", true, "a literal key in its own package counts"},
		{"a.Config.OtherLiteral", true, "a literal key in another package counts"},
		{"a.Config.Assigned", true, "an assignment through a selector outside the package counts"},
		{"a.Config.OpAssigned", true, "an op-assignment outside the package counts"},
		{"a.Config.Incremented", true, "++ outside the package counts"},
		{"a.Config.Elided", true, "a key in a slice element that elides its type counts"},
		{"a.Options.Set", true, "a key in a map value that elides its pointer type counts"},
		{"a.Config.FromCmd", true, "cmd/ counts"},
		{"a.Config.FromExample", true, "examples/ counts"},
		{"a.Config.FromBench", true, "benchmark/ counts"},
		{"a.Config.Defaulted", false, "in-package default filling does not count"},
		{"a.Config.OnlyTested", false, "a _test.go literal and in-package ++ do not count"},
		{"a.Config.LookAlike", false, "c's literal keys, and d's assignment sets, c.Other's field of the same name"},
		{"a.Options.Unset", false, "a _test.go assignment does not count"},
	} {
		if _, ok := s.decls[c.key]; !ok {
			t.Errorf("%s: not found as an option field", c.key)
		} else if s.used[c.key] != c.set {
			t.Errorf("%s: set = %v, want %v (%s)", c.key, s.used[c.key], c.set, c.reason)
		}
	}
	for _, k := range []string{"a.Config.unexported", "a.Plain.Field", "a.hiddenConfig.Field", "c.Other.LookAlike"} {
		if _, ok := s.decls[k]; ok {
			t.Errorf("%s is under the rule; only exported fields of exported …Config/…Options structs are", k)
		}
	}
	unset := map[string]string{"a.Config.Defaulted": "r", "a.Config.OnlyTested": "r", "a.Config.LookAlike": "r", "a.Options.Unset": "r"}
	if v := s.violations(unset); len(v) != 0 {
		t.Fatalf("every unset field is excused, yet: %q", v)
	}
	for name, c := range map[string]struct{ key, wantSub string }{
		"field now set": {"a.Config.OwnLiteral", "a.Config.OwnLiteral is satisfied by a non-test file now"},
		"field gone":    {"a.Config.Deleted", "a.Config.Deleted names nothing"},
	} {
		allow := map[string]string{c.key: "r"}
		for k, r := range unset {
			allow[k] = r
		}
		if v := s.violations(allow); len(v) != 1 || !strings.Contains(v[0], c.wantSub) {
			t.Errorf("stale entry (%s): violations %q, want exactly one containing %q", name, v, c.wantSub)
		}
	}
}
