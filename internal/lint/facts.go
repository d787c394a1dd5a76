package lint

// facts.go is the cross-package side of the dataflow engine: an
// analyzer running on package P can attach a Fact to one of P's
// exported objects, and an analyzer running on a package that imports P
// can read it back. Facts live in one in-memory store that a Runner
// shares across the dependency-ordered package walk (mira-vet's Load
// order, linttest's fixture order), so a dependency's facts exist before
// its importers are analyzed. The design mirrors x/tools/go/analysis
// object facts, minus package facts (nothing here needs them).

import (
	"go/types"
	"reflect"
)

// A Fact is an analyzer-defined datum attached to a types.Object and
// visible to downstream packages. Implementations should be declared
// with pointer receivers so the concrete type round-trips through the
// store.
type Fact interface {
	// AFact is a marker method: it makes fact types self-describing and
	// keeps arbitrary values out of the store.
	AFact()
}

// factKey identifies one fact: the defining package, a stable name for
// the object within it, and the fact's concrete type.
type factKey struct {
	pkg string
	obj string
	typ reflect.Type
}

// Facts is the fact store for one analysis run. It is not safe for
// concurrent use; the runners call it from a single goroutine.
type Facts struct {
	m map[factKey]Fact
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts {
	return &Facts{m: map[factKey]Fact{}}
}

// objFactKey names obj stably across export/import: methods are keyed
// "Recv.Name" so (*PeerStore).replicateLoop and a package function
// replicateLoop cannot collide. Returns "" for objects that cannot
// carry facts (nil, blank, or package-less).
func objFactKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || obj.Name() == "_" {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Name() + "." + fn.Name()
			}
			return "?." + fn.Name()
		}
	}
	return obj.Name()
}

// set stores fact for obj, replacing any prior fact of the same type.
func (fs *Facts) set(obj types.Object, fact Fact) {
	key := objFactKey(obj)
	if key == "" {
		return
	}
	fs.m[factKey{pkg: obj.Pkg().Path(), obj: key, typ: reflect.TypeOf(fact)}] = fact
}

// get copies the stored fact for obj into the value fact points to and
// reports whether one was found. fact must be a non-nil pointer of the
// same concrete type the producer exported.
func (fs *Facts) get(obj types.Object, fact Fact) bool {
	key := objFactKey(obj)
	if key == "" {
		return false
	}
	stored, ok := fs.m[factKey{pkg: obj.Pkg().Path(), obj: key, typ: reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	dv := reflect.ValueOf(fact)
	sv := reflect.ValueOf(stored)
	if dv.Kind() != reflect.Pointer || dv.IsNil() || sv.Kind() != reflect.Pointer {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}

// Len reports the number of stored facts (used by tests and metrics).
func (fs *Facts) Len() int { return len(fs.m) }
