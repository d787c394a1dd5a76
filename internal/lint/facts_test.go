package lint

import (
	"go/token"
	"go/types"
	"testing"
)

// tfact is a throwaway fact type for the store tests.
type tfact struct{ N int }

func (*tfact) AFact() {}

// TestFactsRoundTrip: a fact set on an object is read back by get
// into a value of the same concrete type.
func TestFactsRoundTrip(t *testing.T) {
	pkg := types.NewPackage("example.com/p", "p")
	obj := types.NewVar(token.NoPos, pkg, "V", types.Typ[types.Int])

	fs := NewFacts()
	fs.set(obj, &tfact{N: 7})
	if fs.Len() != 1 {
		t.Fatalf("Len = %d, want 1", fs.Len())
	}
	var got tfact
	if !fs.get(obj, &got) || got.N != 7 {
		t.Fatalf("stored fact = %+v, want N=7", got)
	}
}

// TestObjFactKey pins the stable naming scheme: methods are keyed
// "Recv.Name" so a method and a package function cannot collide, and
// objects that cannot carry facts yield "".
func TestObjFactKey(t *testing.T) {
	pkg := types.NewPackage("example.com/p", "p")
	named := types.NewNamed(types.NewTypeName(token.NoPos, pkg, "T", nil), types.NewStruct(nil, nil), nil)
	recv := types.NewVar(token.NoPos, pkg, "t", types.NewPointer(named))
	sig := types.NewSignatureType(recv, nil, nil, nil, nil, false)
	method := types.NewFunc(token.NoPos, pkg, "Run", sig)
	if got := objFactKey(method); got != "T.Run" {
		t.Errorf("method key = %q, want %q", got, "T.Run")
	}

	fn := types.NewFunc(token.NoPos, pkg, "Run", types.NewSignatureType(nil, nil, nil, nil, nil, false))
	if got := objFactKey(fn); got != "Run" {
		t.Errorf("function key = %q, want %q", got, "Run")
	}

	if got := objFactKey(nil); got != "" {
		t.Errorf("nil object key = %q, want empty", got)
	}
	blank := types.NewVar(token.NoPos, pkg, "_", types.Typ[types.Int])
	if got := objFactKey(blank); got != "" {
		t.Errorf("blank object key = %q, want empty", got)
	}
}

// TestFactsTypeSeparation: two fact types on the same object live side
// by side; get retrieves by concrete type.
type tfact2 struct{ S string }

func (*tfact2) AFact() {}

func TestFactsTypeSeparation(t *testing.T) {
	pkg := types.NewPackage("example.com/p", "p")
	obj := types.NewVar(token.NoPos, pkg, "V", types.Typ[types.Int])
	fs := NewFacts()
	fs.set(obj, &tfact{N: 1})
	fs.set(obj, &tfact2{S: "two"})
	if fs.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (one per fact type)", fs.Len())
	}
	var a tfact
	var b tfact2
	if !fs.get(obj, &a) || a.N != 1 {
		t.Errorf("tfact = %+v, want N=1", a)
	}
	if !fs.get(obj, &b) || b.S != "two" {
		t.Errorf("tfact2 = %+v, want S=two", b)
	}
}
