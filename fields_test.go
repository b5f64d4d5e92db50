package fleetio

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// writeOnlyFields returns, sorted, the fields of the package-level struct
// types declared in non-test internal/ code of t that no code reads, keyed
// "pkg.Type.field" (pkg being the package's directory under internal/). Every
// package's code reads, bench/ included, and so do the in-package _test.go
// files when tests is true. A use of a field is a read unless it is a write:
// the key of a struct literal, or the whole target of an assignment or of
// ++ and --. Exempt are embedded fields, fields with a struct tag, and the
// fields of two kinds of type: one reachable from the root package's
// exported API, whose fields a user of the module may read, and one used
// whole, whose every field such a use reads. A type is used whole where a
// value holding it is passed to a function or method of fmt, reflect or
// encoding/..., where it is a map key, where it is compared with == or !=,
// and where it is the type argument of a comparable type parameter, which
// generic code compares or keys a map with; "holding" goes as deep as the
// use reads (see depth).
func writeOnlyFields(t *srcTree, tests bool) []string {
	reached := rootReach(t)
	read, whole := map[*types.Var]bool{}, map[*types.TypeName]depth{}
	for _, p := range t.pkgs {
		for _, f := range p.files {
			fieldUses(p.info, f, read, whole)
		}
		if tests {
			for _, f := range p.tests {
				fieldUses(p.info, f, read, whole)
			}
		}
	}

	var unread []string
	for _, p := range t.pkgs {
		prefix, ok := p.internal()
		if !ok {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || t.inTest(tn) || reached[tn] || whole[tn] != 0 {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); !f.Embedded() && st.Tag(i) == "" && f.Name() != "_" && !read[f] {
					unread = append(unread, prefix+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(unread)
	return unread
}

// rootReach returns the named types, declared under internal/ or in the root
// package, that the root package's exported API reaches (see apiReach): a
// user of the module may name their exported fields.
func rootReach(t *srcTree) map[*types.TypeName]bool {
	within := map[*types.Package]bool{}
	var api []types.Type
	for _, p := range t.pkgs {
		if _, ok := p.internal(); ok || p.dir == "." {
			within[p.types] = true
		}
		if p.dir != "." {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			if obj := p.types.Scope().Lookup(name); obj.Exported() && !t.inTest(obj) {
				api = append(api, obj.Type())
			}
		}
	}
	return apiReach(within, api, nil)
}

// fieldUses adds to read the fields file f reads, and to whole the named
// types it uses whole, each at the deepest depth a use reads it (see
// writeOnlyFields).
func fieldUses(info *types.Info, f *ast.File, read map[*types.Var]bool, whole map[*types.TypeName]depth) {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.CompositeLit:
			if _, ok := info.Types[n].Type.Underlying().(*types.Struct); ok {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							writes[key] = true
						}
					}
				}
			}
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && v.IsField() && !writes[n] {
				read[v.Origin()] = true
			}
			if inst, ok := info.Instances[n]; ok {
				params := typeParams(info.Uses[n])
				for i := 0; i < params.Len(); i++ {
					if params.At(i).Constraint().Underlying().(*types.Interface).IsComparable() {
						usedWhole(inst.TypeArgs.At(i), compared, whole)
					}
				}
			}
		case *ast.CallExpr:
			fn, ok := callee(info, n.Fun).(*types.Func)
			if !ok || fn.Pkg() == nil {
				break
			}
			for _, arg := range n.Args {
				switch path := fn.Pkg().Path(); {
				case path == "fmt":
					typ := info.Types[arg].Type
					if p, ok := typ.Underlying().(*types.Pointer); ok {
						typ = p.Elem()
					}
					usedWhole(typ, printed, whole)
				case path == "reflect" || strings.HasPrefix(path, "encoding/"):
					usedWhole(info.Types[arg].Type, walked, whole)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				usedWhole(info.Types[n.X].Type, compared, whole)
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if m, ok := info.Types[e].Type.(*types.Map); ok {
				usedWhole(m.Key(), compared, whole)
			}
		}
		return true
	})
}

// typeParams is the type parameter list of a generic type or function.
func typeParams(obj types.Object) *types.TypeParamList {
	switch typ := obj.Type().(type) {
	case *types.Named:
		return typ.TypeParams()
	case *types.Signature:
		return typ.TypeParams()
	}
	return nil
}

// callee is the function or method a call's Fun names, or nil.
func callee(info *types.Info, fun ast.Expr) types.Object {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	case *ast.IndexExpr:
		return callee(info, fun.X)
	case *ast.IndexListExpr:
		return callee(info, fun.X)
	}
	return nil
}

// depth is how far a whole use reads into a value. == and a map key read
// its fields and array elements. fmt reads slice and map elements too, and
// follows a pointer only at the top; a nested one it prints as an address.
// reflect and encoding/... follow every pointer. fmt, reflect and
// encoding/... also see the fields' names, and whether each is exported.
type depth int

const (
	compared depth = iota + 1
	printed
	walked
)

// usedWhole raises to d the depth in whole of each named type that a use at
// depth d reads a value of typ through: typ itself and what it holds.
func usedWhole(typ types.Type, d depth, whole map[*types.TypeName]depth) {
	switch typ := types.Unalias(typ).(type) {
	case *types.Named:
		if obj := typ.Origin().Obj(); whole[obj] < d {
			whole[obj] = d
			usedWhole(typ.Underlying(), d, whole)
		}
	case *types.Struct:
		for i := 0; i < typ.NumFields(); i++ {
			usedWhole(typ.Field(i).Type(), d, whole)
		}
	case *types.Array:
		usedWhole(typ.Elem(), d, whole)
	case *types.Slice:
		if d >= printed {
			usedWhole(typ.Elem(), d, whole)
		}
	case *types.Map:
		if d >= printed {
			usedWhole(typ.Key(), d, whole)
			usedWhole(typ.Elem(), d, whole)
		}
	case *types.Pointer:
		if d == walked {
			usedWhole(typ.Elem(), d, whole)
		}
	}
}

// TestNoWriteOnlyFields is the field gate: every field of a struct type
// declared under internal/ is read by some code of the module, tests
// included. State that nothing reads is deleted with its writes (DESIGN.md
// decision 17). With -v it logs the fields that no non-test code reads,
// each kept for a reason the decision states.
func TestNoWriteOnlyFields(t *testing.T) {
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range writeOnlyFields(tree, true) {
		t.Errorf("%s is written but never read; delete it and what computes it", f)
	}
	t.Logf("fields no non-test code reads: %s", strings.Join(writeOnlyFields(tree, false), ", "))
}

// TestWriteOnlyFieldsScanner pins, on a planted tree, what the field gate
// counts as a read and what it exempts.
func TestWriteOnlyFieldsScanner(t *testing.T) {
	fsys := fstest.MapFS{
		"go.mod": {Data: []byte("module repro\n")},
		"repro.go": {Data: []byte(`package repro

import "repro/internal/a"

type Result = a.Public
`)},
		"internal/a/a.go": {Data: []byte(`package a

import (
	"fmt"
	"reflect"
)

type T struct {
	read, written, counted, keyed, tested int
	tagged int ` + "`json:\"tagged\"`" + `
	Key
	inner Inner
}

type Key struct{ id, unused int }

type Printed struct {
	n    int
	next *Nested
}

type Nested struct{ m int }

type Walked struct{ next *Deep }

type Deep struct{ k int }

type Compared struct{ n int }

type Inner struct{ set int }

type Public struct{ hidden int }

type Pinned struct{ p *int }

type Boxed struct{ n int }

type set[K comparable] struct{ m map[K]bool }

type box[V any] struct{ v V }

var index map[Key]int

func New() *T {
	t := &T{keyed: 1}
	t.written = 2
	t.counted++
	t.inner.set = 3
	_ = fmt.Sprint(&Printed{})
	_ = reflect.DeepEqual(Walked{}, Walked{})
	_ = Compared{} == Compared{}
	_ = set[Pinned]{}.m
	_ = box[Boxed]{}.v
	return t
}

func (t *T) Read() int { return t.read }
`)},
		"internal/a/a_test.go": {Data: []byte(`package a

func use(t *T) int { return t.tested }
`)},
	}
	tree, err := loadTree(fsys)
	if err != nil {
		t.Fatal(err)
	}
	// inner is read to set its field; Key is a map key, Printed is passed
	// to fmt (which prints its nested pointer as an address), Walked and
	// what it points to are walked by reflect, Compared meets ==, Pinned is
	// a comparable type argument (box's parameter is not), and Public is
	// the root's Result.
	want := []string{"a.Boxed.n", "a.Inner.set", "a.Nested.m", "a.T.counted", "a.T.keyed", "a.T.written"}
	if got := writeOnlyFields(tree, true); !reflect.DeepEqual(got, want) {
		t.Errorf("with tests: unread = %q, want %q", got, want)
	}
	want = []string{"a.Boxed.n", "a.Inner.set", "a.Nested.m", "a.T.counted", "a.T.keyed", "a.T.tested", "a.T.written"}
	if got := writeOnlyFields(tree, false); !reflect.DeepEqual(got, want) {
		t.Errorf("without tests: unread = %q, want %q", got, want)
	}
}
