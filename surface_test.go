package pareto

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The rule this file keeps: a top-level declaration under internal/
// (func, method, type, var or const, exported or not) is referenced by
// at least one non-test file of the repository — cmd/, examples/,
// benchmark/ and pareto.go count as callers, _test.go files do not.
// What only tests reference is a test helper (it lives in a _test.go /
// export_test.go file) or dead (it is deleted). The few declarations
// that are neither are listed here, each with its reason; an entry
// that no longer exists, or that has gained a caller, fails the test
// too, so the list cannot outlive its reasons.
var surfaceAllow = map[string]string{
	"sketch.ExactJaccard":           "oracle the sketch, pivots and datasets tests compare similarity against; a _test.go file of one package cannot serve the others",
	"telemetry.Snapshot.FindSpan":   "span lookup the cluster, core and telemetry tests use to assert what a run recorded",
	"opt.CanonicalizeFrontier":      "frontier oracle shared by opt's contract tests and internal/frontier's cold reference",
	"energy.ForecastTrace":          "ROADMAP item 5 (forecast vs. mean dirty rate) decides whether the planner calls it",
	"kvstore.Server.SetConnWrapper": "fault-injection hook the kvstore, distrib and replan fault tests install on a live server",
	"faultnet.Plan.Wrapper":         "entry point of the fault-injection library those same fault tests import; the rest of internal/faultnet is reached through it",
}

const surfaceModule = "pareto"

// stdlibInterfaceMethods are method names that satisfy a standard-
// library interface the repository's types are passed as (error,
// fmt.Stringer, io.Reader/Writer/Closer, http.Handler, sort.Interface):
// the library calls them, so no selector in the tree has to.
var stdlibInterfaceMethods = []string{
	"Error", "String", "Read", "Write", "Close", "ServeHTTP", "Len", "Less", "Swap",
}

// surfaceScan is what one pass over a file set finds: where each
// top-level declaration under internal/ is, and which of them some
// non-test file references.
type surfaceScan struct {
	decls map[string]token.Position
	used  map[string]bool
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

// scanSurface parses files (slash-separated path relative to the
// module root → source) and applies the rule syntactically: a bare
// identifier references the same-named declaration of its own package,
// pkg.Name references package pkg as the file's import table resolves
// it, and x.Name references every method called Name. A reference made
// from inside the declaration it names (recursion) does not count, and
// neither does one from a _test.go file.
func scanSurface(files map[string]string) (*surfaceScan, error) {
	fset := token.NewFileSet()
	type parsed struct {
		dir  string
		file *ast.File
	}
	var nonTest []parsed
	for name, src := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		nonTest = append(nonTest, parsed{path.Dir(name), f})
	}

	s := &surfaceScan{decls: map[string]token.Position{}, used: map[string]bool{}}
	methods := map[string][]string{} // method name → keys
	for _, p := range nonTest {
		if !strings.HasPrefix(p.dir, "internal/") {
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

	useMethod := func(name string) {
		for _, k := range methods[name] {
			s.used[k] = true
		}
	}
	for _, name := range stdlibInterfaceMethods {
		useMethod(name)
	}
	for _, p := range nonTest {
		imports := map[string]string{} // local name → directory below the module root
		for _, im := range p.file.Imports {
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
		// walk records what one part of a declaration references.
		// selfName is the package-level name, selfMethod the method
		// name, that the declaration itself carries: its own recursion
		// is not a caller.
		var selfName, selfMethod string
		var walk func(root ast.Node)
		walk = func(root ast.Node) {
			if root == nil {
				return
			}
			ast.Inspect(root, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							useMethod(id.Name)
						}
					}
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
					if n.Sel.Name != selfMethod {
						useMethod(n.Sel.Name)
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
				selfName, selfMethod = d.Name.Name, ""
				if d.Recv != nil {
					selfName, selfMethod = "", d.Name.Name
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
						selfName, selfMethod = sp.Name.Name, ""
						if sp.TypeParams != nil {
							walk(sp.TypeParams)
						}
						walk(sp.Type)
					case *ast.ValueSpec:
						selfName, selfMethod = "", ""
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
	return s, nil
}

// violations lists, sorted, every declaration with no non-test
// reference and no allow-list entry, and every allow-list entry that
// names nothing, names something that is now referenced, or gives no
// reason.
func (s *surfaceScan) violations(allow map[string]string) []string {
	var out []string
	for k, pos := range s.decls {
		if _, ok := allow[k]; !ok && !s.used[k] {
			out = append(out, fmt.Sprintf("%s (%s:%d) has no reference outside _test.go files", k, pos.Filename, pos.Line))
		}
	}
	for k, reason := range allow {
		switch _, ok := s.decls[k]; {
		case !ok:
			out = append(out, fmt.Sprintf("allow-list entry %s names no declaration under internal/", k))
		case s.used[k]:
			out = append(out, fmt.Sprintf("allow-list entry %s has a non-test reference now; drop the entry", k))
		case reason == "":
			out = append(out, fmt.Sprintf("allow-list entry %s gives no reason", k))
		}
	}
	sort.Strings(out)
	return out
}

// TestInternalSurfaceHasCallers applies the rule to the repository.
// It is not skipped under -short: it parses the tree once, well under
// two seconds.
func TestInternalSurfaceHasCallers(t *testing.T) {
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
	if err != nil {
		t.Fatal(err)
	}
	s, err := scanSurface(files)
	if err != nil {
		t.Fatal(err)
	}
	if len(surfaceAllow) > 8 {
		t.Errorf("allow-list has %d entries; the rule allows 8", len(surfaceAllow))
	}
	for _, v := range s.violations(surfaceAllow) {
		t.Error(v)
	}
}

// surfaceFixture is a small module the guard's own tests scan: package
// a declares, packages b and c and one command call.
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
`,
	"internal/a/a_test.go": `package a

func useThem() { Orphan(); orphanHelper(); OnlyTested(); T{}.Lonely() }
`,
	"internal/b/b.go": `package b

import "pareto/internal/a"

type Runner interface{ Run() }

func Orphan() {}

func Drive(r Runner) { a.Called(); Orphan(); _ = a.Table }
`,
	"internal/c/c.go": `package c

import other "pareto/internal/b"

var A struct{ OnlyTested func() }

func Go() { other.Drive(nil); A.OnlyTested() }
`,
	"cmd/tool/main.go": `package main

import (
	"pareto/internal/a"
	"pareto/internal/c"
)

func main() { a.FromCmd(); c.Go() }
`,
}

// TestSurfaceScanRule proves the rule case by case on the fixture.
func TestSurfaceScanRule(t *testing.T) {
	s, err := scanSurface(surfaceFixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key    string
		named  bool
		reason string
	}{
		{"a.Orphan", true, "exported, called only by its own test and by b's same-named function"},
		{"a.orphanHelper", true, "unexported, called only by a test"},
		{"a.loop", true, "its only caller is itself"},
		{"a.T.Again", true, "a method whose only caller is itself"},
		{"a.T.Lonely", true, "a method only a test calls"},
		{"a.OnlyTested", true, "c's A.OnlyTested is a field of another package, not a.OnlyTested"},
		{"a.unusedConst", true, "a constant nothing reads"},
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
}

// TestSurfaceAllowListGoesStale: an entry excuses exactly one
// callerless declaration, and fails once that declaration is gone, has
// a caller, or the entry has lost its reason.
func TestSurfaceAllowListGoesStale(t *testing.T) {
	s, err := scanSurface(surfaceFixture)
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]string{
		"a.Orphan": "r", "a.orphanHelper": "r", "a.loop": "r", "a.T.Again": "r",
		"a.T.Lonely": "r", "a.OnlyTested": "r", "a.unusedConst": "r",
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
		{"declaration gone", func(a map[string]string) { a["a.Deleted"] = "r" }, "a.Deleted names no declaration"},
		{"now called", func(a map[string]string) { a["a.Called"] = "r" }, "a.Called has a non-test reference now"},
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
