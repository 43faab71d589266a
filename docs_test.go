package pareto

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The rule this file keeps: what README.md, DESIGN.md and the set-up
// part of EXPERIMENTS.md quote as code exists. Every `pkg.Name` or `pkg.Type.Member` whose pkg is a package
// of the repository and whose Name starts upper-case names a top-level
// declaration, a method or a struct or interface field of that
// package's non-test files (lower-case names are metric names such as
// `frontier.points` and are not checked); pkg.Method stands for a
// method of any of the package's types. The root package `pareto`
// declares nothing, so every `pareto.Name` is drift. Every -flag on a
// quoted `go run ./cmd/<prog>` line, or on a line of a fenced sh block
// that starts with a program's bare name (`kvstored -addr …`), is a
// flag that program defines, and every quoted `go run ./examples/<dir>`
// names a directory of examples/ with a non-test Go file. Inline code
// spans and fenced code blocks both count as quoted.
//
// A document is read up to its heading until, or whole when until is
// empty: EXPERIMENTS.md's dated entries from its first one on record
// history and may quote names that are gone.
var driftDocs = []struct{ name, until string }{
	{"README.md", ""},
	{"DESIGN.md", ""},
	{"EXPERIMENTS.md", "## Stratifier hot-path overhaul"},
}

// docNames is what the rule resolves quotes against: the packages
// under internal/ (by name) and every name a doc may quote in them,
// per command under cmd/ the flags it defines, and the directories
// under examples/.
type docNames struct {
	pkgs     map[string]bool
	names    map[string]bool
	flags    map[string]map[string]bool
	examples map[string]bool
}

// flagFuncs maps the flag package's defining functions to the
// position of their name argument.
var flagFuncs = map[string]int{
	"String": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "Bool": 0, "Float64": 0, "Duration": 0, "Func": 0,
	"StringVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "BoolVar": 1, "Float64Var": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

// embeddedName is the field name an embedded field's type gives it.
func embeddedName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// collectDocNames parses files (as checkFiles takes them) with the
// surface rule's parser.
func collectDocNames(files map[string]string) (*docNames, error) {
	_, nonTest, err := parseNonTest(files)
	if err != nil {
		return nil, err
	}
	d := &docNames{pkgs: map[string]bool{surfaceModule: true}, names: map[string]bool{}, flags: map[string]map[string]bool{}, examples: map[string]bool{}}
	for _, p := range nonTest {
		switch {
		case strings.HasPrefix(p.dir, "internal/"):
			d.addDecls(path.Base(p.dir), p.file)
		case strings.HasPrefix(p.dir, "cmd/"):
			d.addFlags(strings.TrimPrefix(p.dir, "cmd/"), p.file)
		case strings.HasPrefix(p.dir, "examples/"):
			d.examples[strings.TrimPrefix(p.dir, "examples/")] = true
		}
	}
	return d, nil
}

func (d *docNames) addDecls(pkg string, f *ast.File) {
	d.pkgs[pkg] = true
	add := func(parts ...string) { d.names[pkg+"."+strings.Join(parts, ".")] = true }
	members := func(typ string, fields *ast.FieldList) {
		for _, fl := range fields.List {
			if len(fl.Names) == 0 {
				add(typ, embeddedName(fl.Type))
			}
			for _, id := range fl.Names {
				add(typ, id.Name)
			}
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			add(decl.Name.Name)
			if r := recvName(decl); r != "" {
				add(r, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, sp := range decl.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					add(sp.Name.Name)
					switch t := sp.Type.(type) {
					case *ast.StructType:
						members(sp.Name.Name, t.Fields)
					case *ast.InterfaceType:
						members(sp.Name.Name, t.Methods)
					}
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						add(id.Name)
					}
				}
			}
		}
	}
}

func (d *docNames) addFlags(prog string, f *ast.File) {
	if d.flags[prog] == nil {
		d.flags[prog] = map[string]bool{"h": true, "help": true}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
			return true
		}
		i, ok := flagFuncs[sel.Sel.Name]
		if !ok || i >= len(call.Args) {
			return true
		}
		if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				d.flags[prog][name] = true
			}
		}
		return true
	})
}

var (
	fenceRe    = regexp.MustCompile("(?m)^[ \t]*```")
	spanRe     = regexp.MustCompile("`([^`]+)`")
	quotedRe   = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
	goRunCmdRe = regexp.MustCompile(`go run \./cmd/([\w-]+)`)
	goRunExRe  = regexp.MustCompile(`go run \./examples/([\w-]+)`)
	flagTokRe  = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=.*)?$`)
)

// quotedCode returns a doc's quoted code, each piece with the line it
// starts on and whether it is a line of a fenced sh block: every line
// of a fenced block (a line ending in a backslash joined with the
// next), and every inline span outside them.
func quotedCode(doc string) (lines []int, code []string, sh []bool) {
	lineAt := func(off int) int { return 1 + strings.Count(doc[:off], "\n") }
	fences := fenceRe.FindAllStringIndex(doc, -1)
	prose := 0
	for i := 0; i+1 < len(fences); i += 2 {
		open, closing := fences[i], fences[i+1]
		for _, m := range spanRe.FindAllStringSubmatchIndex(doc[prose:open[0]], -1) {
			lines = append(lines, lineAt(prose+m[2]))
			code = append(code, doc[prose+m[2]:prose+m[3]])
			sh = append(sh, false)
		}
		body := doc[open[1]:closing[0]]
		lang, _, _ := strings.Cut(body, "\n")
		start := open[1] + strings.Index(body, "\n") + 1
		var first int
		var joined string
		for k, l := range strings.Split(doc[start:closing[0]], "\n") {
			if joined == "" {
				first = lineAt(start) + k
			}
			if strings.HasSuffix(l, `\`) {
				joined += strings.TrimSuffix(l, `\`) + " "
				continue
			}
			lines = append(lines, first)
			code = append(code, joined+l)
			sh = append(sh, strings.TrimSpace(lang) == "sh")
			joined = ""
		}
		prose = closing[1]
	}
	for _, m := range spanRe.FindAllStringSubmatchIndex(doc[prose:], -1) {
		lines = append(lines, lineAt(prose+m[2]))
		code = append(code, doc[prose+m[2]:prose+m[3]])
		sh = append(sh, false)
	}
	return lines, code, sh
}

// drift lists, sorted, every quote in doc (named name) that names
// nothing d holds.
func (d *docNames) drift(name, doc string) []string {
	var out []string
	// checkFlags reports every -flag among args, up to the first shell
	// operator or comment, that prog (quoted as invoked) does not
	// define.
	checkFlags := func(where, prog, invoked string, args []string) {
		for _, tok := range args {
			if strings.ContainsAny(tok[:1], "|&;>#") || strings.HasPrefix(tok, "2>") {
				break
			}
			if f := flagTokRe.FindStringSubmatch(tok); f != nil && !d.flags[prog][f[1]] {
				out = append(out, fmt.Sprintf("%s: `%s` has no flag -%s", where, invoked, f[1]))
			}
		}
	}
	lines, code, sh := quotedCode(doc)
	for i, c := range code {
		where := fmt.Sprintf("%s:%d", name, lines[i])
		for _, m := range quotedRe.FindAllStringSubmatch(c, -1) {
			pkg := m[1]
			if !d.pkgs[pkg] {
				continue
			}
			ref := pkg + "." + m[2]
			if m[3] != "" && d.names[ref] && d.isType(ref) {
				ref += "." + m[3]
			}
			if !d.names[ref] {
				out = append(out, fmt.Sprintf("%s: `%s` names nothing in package %s", where, ref, pkg))
			}
		}
		for _, m := range goRunCmdRe.FindAllStringSubmatchIndex(c, -1) {
			prog := c[m[2]:m[3]]
			if d.flags[prog] == nil {
				out = append(out, fmt.Sprintf("%s: `go run ./cmd/%s`: no such command", where, prog))
				continue
			}
			checkFlags(where, prog, "go run ./cmd/"+prog, strings.Fields(c[m[1]:]))
		}
		for _, m := range goRunExRe.FindAllStringSubmatch(c, -1) {
			if !d.examples[m[1]] {
				out = append(out, fmt.Sprintf("%s: `go run ./examples/%s`: no such example", where, m[1]))
			}
		}
		if f := strings.Fields(c); sh[i] && len(f) > 0 && d.flags[f[0]] != nil {
			checkFlags(where, f[0], f[0], f[1:])
		}
	}
	sort.Strings(out)
	return out
}

// isType reports whether the quoted pkg.Name is a type with members, so
// that a third part after it is a member the rule checks (after a
// function or variable it is the doc's own selector, such as a field of
// a result).
func (d *docNames) isType(ref string) bool {
	prefix := ref + "."
	for k := range d.names {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}

// TestDocsNameWhatExists applies the rule to the repository's docs.
// Like the surface rules it is never skipped.
func TestDocsNameWhatExists(t *testing.T) {
	d, err := collectDocNames(repoFiles(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range driftDocs {
		raw, err := os.ReadFile(doc.name)
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		if doc.until != "" {
			cut := strings.Index(src, "\n"+doc.until)
			if cut < 0 {
				t.Fatalf("%s has no heading %q", doc.name, doc.until)
			}
			src = src[:cut]
		}
		for _, v := range d.drift(doc.name, src) {
			t.Error(v)
		}
	}
}

// TestDocDriftRule proves the rule case by case on a fixture.
func TestDocDriftRule(t *testing.T) {
	d, err := collectDocNames(map[string]string{
		"internal/a/a.go": `package a

type Config struct {
	Alpha float64
	Plan
}

type Plan struct{}

func (p *Plan) Run() {}

type Source interface{ Models() int }

func Build() {}

var ErrBad error
`,
		"internal/a/a_test.go": `package a

func Helper() {}
`,
		"cmd/tool/main.go": `package main

import "flag"

var (
	in  = flag.String("in", "", "input")
	n   int
	_   = flag.Bool("dry-run", false, "plan only")
)

func init() { flag.IntVar(&n, "p", 8, "nodes") }
`,
		"examples/demo/main.go": `package main

func main() {}
`,
		"examples/gone/main_test.go": `package main
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := "Good: `a.Build`, `*a.Config`, `a.Config.Alpha`, `a.Config.Plan`, `a.Plan.Run`,\n" +
		"`a.Run`, `a.Source.Models`, `a.ErrBad`, `a.Build().Result`, `a.metric_name`,\n" +
		"`x.Missing`, `go run ./cmd/tool -in f -p 4 --dry-run | grep -v x`, `go run ./examples/demo`.\n" +
		"\n```sh\ngo run ./cmd/tool -in f \\\n  -bogus 1\n```\n" +
		"Bad: `a.Missing`, `a.Helper`, `a.Config.Beta`, `pareto.Frontier`,\n" +
		"`go run ./cmd/nope -x`, `go run ./cmd/tool -q`, `go run ./examples/gone`.\n" +
		"```go\nplan := a.Gone()\n```\n" +
		"```sh\ntool -in f -p 4 -snapshot x.pkvs &\n```\n"
	want := []string{
		"doc.md:10: `go run ./cmd/nope`: no such command",
		"doc.md:10: `go run ./cmd/tool` has no flag -q",
		"doc.md:10: `go run ./examples/gone`: no such example",
		"doc.md:12: `a.Gone` names nothing in package a",
		"doc.md:15: `tool` has no flag -snapshot",
		"doc.md:6: `go run ./cmd/tool` has no flag -bogus",
		"doc.md:9: `a.Config.Beta` names nothing in package a",
		"doc.md:9: `a.Helper` names nothing in package a",
		"doc.md:9: `a.Missing` names nothing in package a",
		"doc.md:9: `pareto.Frontier` names nothing in package pareto",
	}
	got := d.drift("doc.md", doc)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("drift:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
