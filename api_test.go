package fleetio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// apiAllowlist holds the exported internal/ names that keep their export
// without a caller, one a line with its reason. It only shrinks: a new export
// earns a caller, or is deleted or unexported, instead of a line here.
const apiAllowlist = "testdata/api_allowlist.txt"

// stdInterfaces are the standard-library interfaces whose methods a type
// exports for the standard library to call.
var stdInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"}, {"sort", "Interface"}, {"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"}, {"io", "Writer"}, {"io", "Closer"},
}

// srcTree is a module tree type-checked from source: every package with its
// in-package _test.go files (the module has no external _test packages).
// bench/'s test files count as its non-test code: bench/ is its own module,
// and its tests compile against internal/ as its main package does.
type srcTree struct {
	mod   string // module path, from go.mod
	fset  *token.FileSet
	pkgs  []*srcPackage
	std   types.Importer
	tests map[*token.File]bool // the _test.go files outside bench/
}

type srcPackage struct {
	dir   string      // slash path from the tree's root; "." for the root package
	files []*ast.File // non-test files (bench/'s tests included)
	tests []*ast.File // in-package _test.go files
	types *types.Package
	uses  map[*ast.Ident]types.Object // identifiers of files only
	info  *types.Info                 // Uses, Types and Instances of files and tests
}

// inTest reports whether obj is declared in a _test.go file outside bench/.
func (t *srcTree) inTest(obj types.Object) bool {
	return t.tests[t.fset.File(obj.Pos())]
}

// internal reports whether p is declared under internal/, and the key prefix
// of its names: its directory under internal/.
func (p *srcPackage) internal() (string, bool) {
	return strings.CutPrefix(p.dir, "internal/")
}

// loadTree parses and type-checks the Go packages of fsys. Packages of the
// module are checked from source; nested modules are assumed to be named by
// their directory (bench/ is module repro/bench), so an import path maps to a
// directory. The standard library is read from the export data one `go list
// -export` reports.
func loadTree(fsys fs.FS) (*srcTree, error) {
	gomod, err := fs.ReadFile(fsys, "go.mod")
	if err != nil {
		return nil, err
	}
	t := &srcTree{tests: map[*token.File]bool{}}
	for _, line := range strings.Split(string(gomod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			t.mod = strings.TrimSpace(m)
		}
	}
	if t.mod == "" {
		return nil, errors.New("go.mod names no module")
	}
	ctxt := build.Default
	ctxt.JoinPath = path.Join
	ctxt.OpenFile = func(name string) (io.ReadCloser, error) { return fsys.Open(name) }
	fset := token.NewFileSet()
	t.fset = fset
	byDir := map[string]*srcPackage{}
	std := map[string]bool{}
	for _, i := range stdInterfaces {
		std[i.pkg] = true
	}
	err = fs.WalkDir(fsys, ".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		dir := path.Dir(file)
		if !strings.HasSuffix(file, ".go") {
			return nil
		}
		if ok, err := ctxt.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		src, err := fs.ReadFile(fsys, file)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, file, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if byDir[dir] == nil {
			byDir[dir] = &srcPackage{dir: dir}
			t.pkgs = append(t.pkgs, byDir[dir])
		}
		if p := byDir[dir]; strings.HasSuffix(file, "_test.go") && dir != "bench" {
			p.tests = append(p.tests, f)
			t.tests[fset.File(f.Pos())] = true
		} else {
			p.files = append(p.files, f)
		}
		for _, spec := range f.Imports {
			if p := strings.Trim(spec.Path.Value, `"`); t.dirOf(p) == "" {
				std[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if t.std, err = stdImporter(fset, std); err != nil {
		return nil, err
	}
	var imp importerFunc
	imp = func(importPath string) (*types.Package, error) {
		p := byDir[t.dirOf(importPath)]
		if p == nil {
			return t.std.Import(importPath)
		}
		if p.types == nil {
			p.info = &types.Info{
				Uses:      map[*ast.Ident]types.Object{},
				Types:     map[ast.Expr]types.TypeAndValue{},
				Instances: map[*ast.Ident]types.Instance{},
			}
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(importPath, fset, append(p.files[:len(p.files):len(p.files)], p.tests...), p.info)
			if err != nil {
				return nil, err
			}
			p.types = pkg
			p.uses = map[*ast.Ident]types.Object{}
			for id, obj := range p.info.Uses {
				if !t.tests[fset.File(id.Pos())] {
					p.uses[id] = obj
				}
			}
		}
		return p.types, nil
	}
	for _, p := range t.pkgs {
		if _, err := imp(t.importPath(p.dir)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// dirOf is the directory of a module import path, or "" for any other path.
func (t *srcTree) dirOf(importPath string) string {
	if importPath == t.mod {
		return "."
	}
	dir, _ := strings.CutPrefix(importPath, t.mod+"/")
	if dir == importPath {
		return ""
	}
	return dir
}

func (t *srcTree) importPath(dir string) string {
	if dir == "." {
		return t.mod
	}
	return t.mod + "/" + dir
}

// stdImporter reads the packages named, and what they import, from the
// compiler's export data: one `go list -export -deps` builds or finds it.
func stdImporter(fset *token.FileSet, pkgs map[string]bool) (types.Importer, error) {
	args := []string{"list", "-export", "-deps", "-json=ImportPath,Export"}
	for p := range pkgs {
		args = append(args, p)
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v: %s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		exports[p.ImportPath] = p.Export
	}
	return importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		if exports[p] == "" {
			return nil, fmt.Errorf("no export data for %s", p)
		}
		return os.Open(exports[p])
	}), nil
}

// exportVerdicts checks every exported func, method, type, const, var and
// struct field declared in non-test internal/ code of t, and returns a
// verdict for each one whose export no caller needs, keyed "pkg.Name",
// "pkg.Type.Method" or "pkg.Type.Field" (pkg being the package's directory
// under internal/): "unused" when no non-test code uses it, "own-package"
// when only its own package does. A name keeps its export when another
// package uses it, when its type is reachable through the type of a name
// another package uses (a result, a parameter, an exported field the gate
// keeps; constants of such a type count too), or when it is a method
// implementing an interface the module declares or one of stdInterfaces or
// error. A field is any exported, unembedded field of a package-level struct
// type, exported or not; it is "own-package" unless another package's code
// uses it, its tests included (they build structs by field). Exempt are
// tagged fields and the fields of two kinds of type: one reachable from the
// root package's exported API, and one whose values fmt, reflect or
// encoding/... read whole (see usedWhole), as those see a field's name.
// kinds counts the names checked, by kind.
func exportVerdicts(t *srcTree) (verdicts map[string]string, kinds map[string]int, err error) {
	type use struct{ own, other bool }
	uses := map[types.Object]*use{}
	for _, p := range t.pkgs {
		for _, obj := range p.uses {
			obj = origin(obj)
			if obj.Pkg() == nil {
				continue
			}
			u := uses[obj]
			if u == nil {
				u = &use{}
				uses[obj] = u
			}
			if obj.Pkg() == p.types {
				u.own = true
			} else {
				u.other = true
			}
		}
	}

	internal := map[*types.Package]bool{}
	var ifaces []*types.Interface
	for _, p := range t.pkgs {
		if _, ok := p.internal(); ok {
			internal[p.types] = true
		}
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && !t.inTest(tn) && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, i := range stdInterfaces {
		pkg, err := t.std.Import(i.pkg)
		if err != nil {
			return nil, nil, err
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(i.name).Type().Underlying().(*types.Interface))
	}

	verdicts, kinds = map[string]string{}, map[string]int{}
	hidden := ownFields(t, verdicts, kinds)

	// reached holds the internal/ named types reachable from outside their
	// package through the type of a name another package uses.
	var roots []types.Type
	for obj, u := range uses {
		if u.other && internal[obj.Pkg()] {
			roots = append(roots, obj.Type())
		}
	}
	reached := apiReach(internal, roots, hidden)

	judge := func(key, kind string, obj types.Object, keep bool) {
		kinds[kind]++
		u := uses[obj]
		switch {
		case keep || u != nil && u.other:
		case u != nil && u.own:
			verdicts[key] = "own-package"
		default:
			verdicts[key] = "unused"
		}
	}
	for _, p := range t.pkgs {
		prefix, ok := p.internal()
		if !ok {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if t.inTest(obj) {
				continue
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named := tn.Type().(*types.Named)
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() && !t.inTest(m) {
						judge(prefix+"."+name+"."+m.Name(), "method", m, implementsAny(named, m.Name(), ifaces))
					}
				}
			}
			if !obj.Exported() {
				continue
			}
			switch obj := obj.(type) {
			case *types.Func:
				judge(prefix+"."+name, "func", obj, false)
			case *types.TypeName:
				judge(prefix+"."+name, "type", obj, reached[obj])
			case *types.Const:
				named, ok := obj.Type().(*types.Named)
				judge(prefix+"."+name, "const", obj, ok && reached[named.Obj()])
			case *types.Var:
				judge(prefix+"."+name, "var", obj, false)
			}
		}
	}
	return verdicts, kinds, nil
}

// ownFields judges the struct fields for exportVerdicts: it adds a verdict
// for each field only its own package uses, counts the fields checked, and
// returns the fields it flags, which are to be unexported and so reach
// nothing.
func ownFields(t *srcTree, verdicts map[string]string, kinds map[string]int) map[*types.Var]bool {
	other := map[*types.Var]bool{}
	whole := map[*types.TypeName]depth{}
	for _, p := range t.pkgs {
		for _, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != p.types {
				other[v.Origin()] = true
			}
		}
		for _, f := range append(p.files[:len(p.files):len(p.files)], p.tests...) {
			fieldUses(p.info, f, map[*types.Var]bool{}, whole)
		}
	}
	reached := rootReach(t)
	hidden := map[*types.Var]bool{}
	for _, p := range t.pkgs {
		prefix, ok := p.internal()
		if !ok {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || t.inTest(tn) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				kinds["field"]++
				if !other[f] && st.Tag(i) == "" && !reached[tn] && whole[tn] < printed {
					verdicts[prefix+"."+name+"."+f.Name()] = "own-package"
					hidden[f] = true
				}
			}
		}
	}
	return hidden
}

// apiReach returns the named types, declared in a package of within, that
// the roots reach: through type arguments, pointer, slice, array, channel and
// map elements, signatures, the exported methods of interfaces, and exported
// or embedded struct fields, but for the hidden ones. These are the types a
// holder of a root can name.
func apiReach(within map[*types.Package]bool, roots []types.Type, hidden map[*types.Var]bool) map[*types.TypeName]bool {
	reached := map[*types.TypeName]bool{}
	var reach func(types.Type)
	reach = func(typ types.Type) {
		switch typ := types.Unalias(typ).(type) {
		case *types.Named:
			for i := 0; i < typ.TypeArgs().Len(); i++ {
				reach(typ.TypeArgs().At(i))
			}
			if obj := typ.Origin().Obj(); within[obj.Pkg()] && !reached[obj] {
				reached[obj] = true
				reach(typ.Origin().Underlying())
			}
		case *types.Pointer:
			reach(typ.Elem())
		case *types.Slice:
			reach(typ.Elem())
		case *types.Array:
			reach(typ.Elem())
		case *types.Chan:
			reach(typ.Elem())
		case *types.Map:
			reach(typ.Key())
			reach(typ.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{typ.Params(), typ.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					reach(tuple.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				if f := typ.Field(i); (f.Exported() || f.Embedded()) && !hidden[f] {
					reach(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < typ.NumMethods(); i++ {
				if m := typ.Method(i); m.Exported() {
					reach(m.Type())
				}
			}
		}
	}
	for _, typ := range roots {
		reach(typ)
	}
	return reached
}

// origin maps a method or field of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// implementsAny reports whether method name of named (or of a pointer to it)
// implements one of ifaces that has a method of that name.
func implementsAny(named *types.Named, name string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
	}
	return false
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
	sc := bufio.NewScanner(bytes.NewReader(src))
	for i := 1; sc.Scan(); i++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, i, key)
		}
		allow[key] = strings.TrimSpace(reason)
	}
	return allow, nil
}

// apiGateProblems compares the verdicts with the allowlist: a verdict the
// allowlist does not name is a problem, and so is an allowlisted key without
// a verdict (stale).
func apiGateProblems(verdicts, allow map[string]string) []string {
	var problems []string
	for key, v := range verdicts {
		if _, ok := allow[key]; ok {
			continue
		}
		switch v {
		case "unused":
			problems = append(problems, "unused: "+key+" has no non-test use; delete it or give it a caller")
		case "own-package":
			problems = append(problems, "own-package: "+key+" is used only inside its package; unexport it")
		}
	}
	for key := range allow {
		if verdicts[key] == "" {
			problems = append(problems, "stale: "+key+" is gone or has a caller; delete its line from "+apiAllowlist)
		}
	}
	sort.Strings(problems)
	return problems
}

// undocumentedObs lists the exported top-level declarations of internal/obs
// that carry no doc comment. internal/obs is the repo's external-facing
// surface: its names become JSONL fields and /metrics series.
func undocumentedObs(t *srcTree) []string {
	var bad []string
	for _, p := range t.pkgs {
		if p.dir != "internal/obs" {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Doc == nil && d.Name.IsExported() && (d.Recv == nil || ast.IsExported(recvName(d.Recv.List[0].Type))) {
						bad = append(bad, t.fset.Position(d.Pos()).String()+": "+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var name *ast.Ident
						var doc *ast.CommentGroup
						switch s := s.(type) {
						case *ast.TypeSpec:
							name, doc = s.Name, s.Doc
						case *ast.ValueSpec:
							name, doc = s.Names[0], s.Doc
						default:
							continue
						}
						if d.Doc == nil && doc == nil && name.IsExported() {
							bad = append(bad, t.fset.Position(name.Pos()).String()+": "+name.Name)
						}
					}
				}
			}
		}
	}
	return bad
}

// deviceStackEscapes lists every non-test use, outside the nested bench/
// module, of the two constructors only internal/device may call:
// vssd.NewPlatform anywhere but device.New, and workload.NewGenerator
// anywhere outside internal/device. A use is an identifier the type checker
// resolves to the constructor, so a call through an import alias, or the
// function taken as a value, counts as a plain call does.
func deviceStackEscapes(t *srcTree) []string {
	var platform, generator types.Object
	for _, p := range t.pkgs {
		switch p.dir {
		case "internal/vssd":
			platform = p.types.Scope().Lookup("NewPlatform")
		case "internal/workload":
			generator = p.types.Scope().Lookup("NewGenerator")
		}
	}
	var bad []string
	for _, p := range t.pkgs {
		if p.dir == "bench" || strings.HasPrefix(p.dir, "bench/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, _ := d.(*ast.FuncDecl)
				inNew := p.dir == "internal/device" && fd != nil && fd.Recv == nil && fd.Name.Name == "New"
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					var what string
					switch obj := p.uses[id]; {
					case obj == nil:
					case obj == platform && !inNew:
						what = "vssd.NewPlatform outside device.New"
					case obj == generator && p.dir != "internal/device":
						what = "workload.NewGenerator outside internal/device"
					}
					if what != "" {
						bad = append(bad, t.fset.Position(id.Pos()).String()+": "+what)
					}
					return true
				})
			}
		}
	}
	return bad
}

// recvName is the type name of a method receiver T or *T.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// repoTree is the repository, loaded once for the tests that read it.
var repoTree = sync.OnceValues(func() (*srcTree, error) { return loadTree(os.DirFS(".")) })

// TestInternalAPISizedToCallers is the API gate: every exported name under
// internal/ has a caller in another package, or a line in the allowlist.
func TestInternalAPISizedToCallers(t *testing.T) {
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	verdicts, kinds, err := exportVerdicts(tree)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exported names in non-test internal/: %d funcs, %d methods, %d types, %d consts, %d vars, %d fields",
		kinds["func"], kinds["method"], kinds["type"], kinds["const"], kinds["var"], kinds["field"])
	allow, err := readAllowlist(os.DirFS("."), apiAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range apiGateProblems(verdicts, allow) {
		t.Error(p)
	}
}

// TestOneDeviceStack: a device is assembled in one function, device.New,
// and only internal/device binds workload generators (Device.Drive), so
// every single-device run and every rack shard is one device.Device, and
// traffic starts and stops in one place.
func TestOneDeviceStack(t *testing.T) {
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range deviceStackEscapes(tree) {
		t.Errorf("%s: build the device with device.New, bind generators with Device.Drive", bad)
	}
}

// TestOneDeviceStackScanner pins, on a planted tree, what the device-stack
// rule reports: a use through an import alias and a function value count,
// device.New and internal/device, tests and bench/ are exempt.
func TestOneDeviceStackScanner(t *testing.T) {
	fsys := fstest.MapFS{
		"go.mod": {Data: []byte("module repro\n")},
		"internal/vssd/vssd.go": {Data: []byte(`package vssd

type Platform struct{}

func NewPlatform() *Platform { return &Platform{} }
`)},
		"internal/workload/workload.go": {Data: []byte(`package workload

type Generator struct{}

func NewGenerator() *Generator { return &Generator{} }
`)},
		"internal/device/device.go": {Data: []byte(`package device

import (
	"repro/internal/vssd"
	"repro/internal/workload"
)

func New() *vssd.Platform { return vssd.NewPlatform() }

func Drive() *workload.Generator { return workload.NewGenerator() }

func Second() *vssd.Platform { return vssd.NewPlatform() }
`)},
		"internal/other/other.go": {Data: []byte(`package other

import (
	v "repro/internal/vssd"
	"repro/internal/workload"
)

var build = workload.NewGenerator

func Platform() *v.Platform { return v.NewPlatform() }
`)},
		"internal/other/other_test.go": {Data: []byte(`package other

import "repro/internal/vssd"

func use() { vssd.NewPlatform() }
`)},
		"bench/main.go": {Data: []byte(`package main

import (
	"repro/internal/vssd"
	"repro/internal/workload"
)

func main() { vssd.NewPlatform(); workload.NewGenerator() }
`)},
	}
	tree, err := loadTree(fsys)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/device/device.go:12:44: vssd.NewPlatform outside device.New",
		"internal/other/other.go:8:22: workload.NewGenerator outside internal/device",
		"internal/other/other.go:10:40: vssd.NewPlatform outside device.New",
	}
	if got := deviceStackEscapes(tree); !reflect.DeepEqual(got, want) {
		t.Fatalf("escapes = %q, want %q", got, want)
	}
}

// TestObsExportsDocumented: every exported top-level name of internal/obs
// carries a doc comment.
func TestObsExportsDocumented(t *testing.T) {
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range undocumentedObs(tree) {
		t.Errorf("%s has no doc comment", bad)
	}
}

// TestUnusedExportsScanner pins, on a planted tree, what the gate counts as a
// caller and what the doc lint flags.
func TestUnusedExportsScanner(t *testing.T) {
	fsys := fstest.MapFS{
		"go.mod": {Data: []byte("module repro\n")},
		"repro.go": {Data: []byte(`package repro

type Doer interface{ Do() }
`)},
		"internal/a/a.go": {Data: []byte(`package a

import "fmt"

type T struct {
	F Field
	K Kind
}
type Field struct{}
type Kind int

const (
	KindX Kind = iota
	KindY
)

type Own struct{}
type Orphan struct{}

var Var = 1

const Max = 3

func NewT() *T         { return &T{} }
func ForBench()        {}
func ForBenchTest()    {}
func TestOnly()        {}
func Helper()          {}
func (T) String() string { return fmt.Sprint(KindX) }
func (*T) Method()     {}
func (T) Do()          {}
func (T) Orphan()      {}
func (T) Unused()      {}
`)},
		"internal/a/sibling.go": {Data: []byte(`package a

func sibling() { Helper(); _ = Var; _ = Own{}; T{}.Orphan() }
`)},
		"internal/a/ignored.go": {Data: []byte(`//go:build ignore

package a

func Helper() {}
`)},
		"internal/a/a_test.go": {Data: []byte(`package a

func use() { TestOnly() }
`)},
		"internal/obs/obs.go": {Data: []byte(`package obs

// Documented has a doc comment.
func Documented() {}

func Bare() {}
`)},
		"cmd/b/main.go": {Data: []byte(`package main

import (
	"repro/internal/a"
	"repro/internal/obs"
)

func main() { t := a.NewT(); t.Method(); _ = t.F; _ = t.K; obs.Documented(); obs.Bare() }
`)},
		"bench/main.go": {Data: []byte(`package main

import x "repro/internal/a"

func main() { x.ForBench() }
`)},
		"bench/x_test.go": {Data: []byte(`package main

import "repro/internal/a"

func use() { a.ForBenchTest() }
`)},
		"allow.txt": {Data: []byte(`# planted
a.Max    kept for the test
a.NewT   stale: cmd/b calls it
`)},
	}
	tree, err := loadTree(fsys)
	if err != nil {
		t.Fatal(err)
	}
	verdicts, kinds, err := exportVerdicts(tree)
	if err != nil {
		t.Fatal(err)
	}
	// T is reached through NewT's result, Field and Kind through T's fields,
	// and KindX and KindY are constants of Kind. String implements
	// fmt.Stringer and Do the module's Doer. ForBench's caller imports a
	// under an alias, and ForBenchTest's is a bench/ test file.
	want := map[string]string{
		"a.Helper": "own-package", "a.Own": "own-package", "a.T.Orphan": "own-package", "a.Var": "own-package",
		"a.Max": "unused", "a.Orphan": "unused", "a.T.Unused": "unused", "a.TestOnly": "unused",
	}
	if !reflect.DeepEqual(verdicts, want) {
		t.Fatalf("verdicts = %v, want %v", verdicts, want)
	}
	if want := map[string]int{"func": 7, "method": 5, "type": 5, "const": 3, "var": 1, "field": 2}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("kinds = %v, want %v", kinds, want)
	}
	if got := undocumentedObs(tree); len(got) != 1 || !strings.HasSuffix(got[0], ": Bare") {
		t.Errorf("undocumented = %q, want only Bare", got)
	}
	allow, err := readAllowlist(fsys, "allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := apiGateProblems(verdicts, allow)
	if len(got) != 8 || !strings.HasPrefix(got[0], "own-package: a.Helper ") ||
		!strings.HasPrefix(got[4], "stale: a.NewT ") || !strings.HasPrefix(got[5], "unused: a.Orphan ") {
		t.Fatalf("problems = %q", got)
	}
	fsys["bad.txt"] = &fstest.MapFile{Data: []byte("a.Max\n")}
	if _, err := readAllowlist(fsys, "bad.txt"); err == nil {
		t.Fatal("an allowlist line without a reason must be an error")
	}
}

// TestExportedFieldsScanner pins, on a planted tree, the gate's field rule:
// which uses keep a field's export, which types are exempt, and that a type
// whose last outside reach was a field the rule hides is judged as if the
// field were unexported.
func TestExportedFieldsScanner(t *testing.T) {
	fsys := fstest.MapFS{
		"go.mod": {Data: []byte("module repro\n")},
		"repro.go": {Data: []byte(`package repro

import "repro/internal/a"

type Result = a.Public
`)},
		"internal/a/a.go": {Data: []byte(`package a

import (
	"encoding/json"
	"fmt"
)

type T struct {
	Used, Tested, Own int
	Tagged            int ` + "`json:\"tagged\"`" + `
	Shape             Shape
	Compared          Compared
	unexported        int
	Public
}

type Shape struct{ N int }

type Public struct{ N int }

type Printed struct{ N int }

type Encoded struct{ N int }

type Compared struct{ N int }

type hidden struct{ N int }

func NewT() *T {
	t := &T{Own: 1, Tagged: 2, Shape: Shape{N: 3}, unexported: 4}
	_ = fmt.Sprint(Printed{N: t.Own})
	_, _ = json.Marshal(Encoded{N: t.Tagged})
	_ = t.Compared == Compared{N: hidden{N: t.unexported}.N}
	return t
}
`)},
		"cmd/b/main.go": {Data: []byte(`package main

import "repro/internal/a"

func main() { _ = a.NewT().Used }
`)},
		"internal/c/c.go": {Data: []byte(`package c
`)},
		"internal/c/c_test.go": {Data: []byte(`package c

import "repro/internal/a"

func use() int { return a.NewT().Tested }
`)},
	}
	tree, err := loadTree(fsys)
	if err != nil {
		t.Fatal(err)
	}
	verdicts, kinds, err := exportVerdicts(tree)
	if err != nil {
		t.Fatal(err)
	}
	// Used is kept by cmd/b and Tested by c's test; Tagged has a tag,
	// Public is the root's Result, Printed and Encoded are read whole by fmt
	// and encoding/json, which see field names. Compared is only compared,
	// which does not, and hidden's field counts though the type is
	// unexported. Shape and Compared were reached only through T's fields
	// of their names, which the rule hides.
	want := map[string]string{
		"a.T.Own": "own-package", "a.T.Shape": "own-package", "a.T.Compared": "own-package",
		"a.Compared.N": "own-package", "a.hidden.N": "own-package", "a.Shape.N": "own-package",
		"a.Shape": "own-package", "a.Compared": "own-package",
		"a.Printed": "own-package", "a.Encoded": "own-package",
	}
	if !reflect.DeepEqual(verdicts, want) {
		t.Fatalf("verdicts = %v, want %v", verdicts, want)
	}
	if kinds["field"] != 12 {
		t.Errorf("fields checked = %d, want 12", kinds["field"])
	}
	if got := apiGateProblems(verdicts, nil); len(got) != len(want) || !strings.HasPrefix(got[0], "own-package: a.Compared ") {
		t.Errorf("problems = %q", got)
	}
}
