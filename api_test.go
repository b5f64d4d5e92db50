package fleetio

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// apiAllowlist holds the exported internal/ functions and methods that keep
// their export without a non-test caller in another file, one a line with
// its reason. It only shrinks: a new export earns a caller, or is deleted or
// unexported, instead of a line here.
const apiAllowlist = "testdata/api_allowlist.txt"

// interfaceMethods are methods a type exports for a standard interface
// (fmt.Stringer, sort.Interface, json.Marshaler and Unmarshaler, io.Writer,
// io.Closer, error); their caller is the standard library.
var interfaceMethods = map[string]bool{
	"String": true, "Less": true, "Swap": true, "Len": true, "MarshalJSON": true,
	"UnmarshalJSON": true, "Write": true, "Close": true, "Error": true,
}

// unusedExports lists, sorted, the exported functions and methods declared in
// non-test code under internal/ of fsys that no other non-test .go file of
// fsys names. Callers anywhere in the tree count (cmd/, examples/, the root
// package, other internal/ packages, bench/); _test.go files, testdata/ and
// dot-directories do not. A function is named by a selector on its package's
// import, or by its bare name in another file of its package; a method is
// named by any identifier or selector of its name, since telling receivers
// apart needs type checking. An entry reads "pkg.Func" or "pkg.Type.Method",
// pkg being the package's directory under internal/.
func unusedExports(fsys fs.FS) ([]string, error) {
	type decl struct{ key, ref, file string }
	var decls []decl
	namedIn := map[string]map[string]bool{} // ref → files naming it
	name := func(ref, file string) {
		if namedIn[ref] == nil {
			namedIn[ref] = map[string]bool{}
		}
		namedIn[ref][file] = true
	}
	fset := token.NewFileSet()
	err := fs.WalkDir(fsys, ".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, file)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, internal := strings.CutPrefix(path.Dir(file), "internal/")
		imports := map[string]string{} // local name → package under internal/
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			if _, dir, ok := strings.Cut(p, "/internal/"); ok {
				local := path.Base(p)
				if spec.Name != nil {
					local = spec.Name.Name
				}
				imports[local] = dir
			}
		}
		skip := map[*ast.Ident]bool{} // declared names, and selectors' right-hand sides
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			skip[fd.Name] = true
			if !internal || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				decls = append(decls, decl{pkg + "." + fd.Name.Name, pkg + "." + fd.Name.Name, file})
			} else if !interfaceMethods[fd.Name.Name] {
				key := pkg + "." + receiverType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				decls = append(decls, decl{key, fd.Name.Name, file})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				name(n.Sel.Name, file)
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					name(imports[x.Name]+"."+n.Sel.Name, file)
				}
			case *ast.Ident:
				if !skip[n] {
					name(n.Name, file)
					if internal {
						name(pkg+"."+n.Name, file)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var unused []string
	for _, d := range decls {
		used := false
		for file := range namedIn[d.ref] {
			used = used || file != d.file
		}
		if !used {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// receiverType is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return receiverType(t.X)
	case *ast.IndexExpr:
		return receiverType(t.X)
	case *ast.IndexListExpr:
		return receiverType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return fmt.Sprintf("%T", e)
}

// readAllowlist parses an allowlist file of fsys: one "key reason…" a line;
// blank lines and lines starting with # are skipped. A key without a reason
// is an error.
func readAllowlist(fsys fs.FS, file string) (map[string]string, error) {
	src, err := fs.ReadFile(fsys, file)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, i+1, key)
		}
		allow[key] = strings.TrimSpace(reason)
	}
	return allow, nil
}

// apiGateProblems compares a scan with the allowlist: an unused export the
// allowlist does not name is new, and an allowlisted key that is not an
// unused export any more is stale.
func apiGateProblems(unused []string, allow map[string]string) []string {
	var problems []string
	isUnused := map[string]bool{}
	for _, key := range unused {
		isUnused[key] = true
		if _, ok := allow[key]; !ok {
			problems = append(problems, "new: "+key+" has no non-test caller in another file; delete it, unexport it, or give it a caller")
		}
	}
	for key := range allow {
		if !isUnused[key] {
			problems = append(problems, "stale: "+key+" is gone or has a caller; delete its line from "+apiAllowlist)
		}
	}
	sort.Strings(problems)
	return problems
}

// TestInternalAPISizedToCallers is the API gate: every exported function and
// method under internal/ has a non-test caller in another file, or a line in
// the allowlist.
func TestInternalAPISizedToCallers(t *testing.T) {
	fsys := os.DirFS(".")
	unused, err := unusedExports(fsys)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(fsys, apiAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range apiGateProblems(unused, allow) {
		t.Error(p)
	}
}

// TestUnusedExportsScanner pins what the gate counts as a caller, on a
// planted tree.
func TestUnusedExportsScanner(t *testing.T) {
	fsys := fstest.MapFS{
		"internal/a/a.go": {Data: []byte(`package a

type T struct{}

func Planted()           {}
func TestOnly()          {}
func ForB()              {}
func ForBench()          {}
func ForSibling()        {}
func (T) String() string { return "" }
func (*T) Method()       {}
func (T) Orphan()        {}

func own() { Planted(); T{}.Orphan() }
`)},
		"internal/a/sibling.go": {Data: []byte(`package a

func sibling() { ForSibling() }
`)},
		"internal/a/a_test.go": {Data: []byte(`package a

func use() { TestOnly() }
`)},
		"internal/b/b.go": {Data: []byte(`package b

import "repro/internal/a"

func use(t *a.T) { a.ForB(); t.Method(); Planted() }
`)},
		"bench/main.go": {Data: []byte(`package main

import x "repro/internal/a"

func main() { x.ForBench() }
`)},
		"allow.txt": {Data: []byte(`# planted
a.Planted     kept for the test
a.ForB        stale: b calls it
`)},
	}
	unused, err := unusedExports(fsys)
	if err != nil {
		t.Fatal(err)
	}
	// Planted's only other mention is a bare name in another package, and
	// TestOnly's caller is a test; Orphan's is its own file. ForB, ForBench
	// (through an import alias, under bench/), ForSibling and Method have
	// callers in other files, and String is an interface method.
	if want := []string{"a.Planted", "a.T.Orphan", "a.TestOnly"}; !reflect.DeepEqual(unused, want) {
		t.Fatalf("unused = %q, want %q", unused, want)
	}
	allow, err := readAllowlist(fsys, "allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := apiGateProblems(unused, allow)
	if len(got) != 3 || !strings.HasPrefix(got[0], "new: a.T.Orphan ") ||
		!strings.HasPrefix(got[1], "new: a.TestOnly ") || !strings.HasPrefix(got[2], "stale: a.ForB ") {
		t.Fatalf("problems = %q", got)
	}
	fsys["bad.txt"] = &fstest.MapFile{Data: []byte("a.Planted\n")}
	if _, err := readAllowlist(fsys, "bad.txt"); err == nil {
		t.Fatal("an allowlist line without a reason must be an error")
	}
}
