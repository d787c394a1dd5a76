package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"mira/internal/arch"
	"mira/internal/ast"
	"mira/internal/sema"
)

// CacheFormatVersion is the version of Mira's cache-key scheme, shared by
// every caching layer: it is mixed into the engine's content-hash keys,
// into every function-content key below, and into the cachestore's
// on-disk magic. Bump it whenever the meaning of a key changes (hash
// inputs, artifact encoding, model semantics) so that stale artifacts in
// every layer — live caches, per-function store entries — become clean
// misses at once, never mismatches. Function keys moved from AST
// encodings to source text without a bump: their domain tag went from
// "mira-funckey" to "mira-funckey-src", which leaves engine content keys
// as they were and makes per-function entries stored under the old tag
// unreachable, never mis-served.
//
// Version history:
//
//	1  whole-source content hashes (PR 1/2)
//	2  function-granular Merkle keys; per-function store entries
//	3  arch content keys replace arch names in key material
const CacheFormatVersion = 3

// FuncKeys computes a content key for every function of an analyzed
// program, under the given analysis options.
//
// The key of a function f is a Merkle-style hash over
//
//	version ‖ options ‖ globals ‖ name(f) ‖ src(f) ‖ key(callee₁) ‖ key(callee₂) …
//
// with callees in sema's sorted order. Including the callee closure makes
// the key the identity of f's *inclusive* analysis artifacts: editing a
// callee changes exactly the keys of its transitive callers, so a cache
// keyed this way invalidates precisely what the edit can affect. (The
// call graph is acyclic — sema rejects recursion — so the recursion
// terminates.)
//
// src(f) is f's anchored source text (ast.Source): the position of its
// first token, the text's length, then the exact text. Model sites
// attach to (line, col) pairs and loop parameters are mangled with their
// declaration line, so layout is semantically significant and must be
// part of the identity; the anchor plus the text fix every token and
// every position in f. Comments inside f are part of its text, so
// editing one recompiles f and its callers; comments outside every
// declaration leave every key alone as long as no declaration moves.
// The globals hash covers every global variable declaration and every
// class's name, position and field declarations, each field and global
// as anchored text: global layout, folded constants, field offsets and
// which class names parse as types feed every function's compilation.
// The architecture contributes its content key, not its name: two
// descriptions differing in any parameter produce disjoint function
// keys, so cached artifacts can never cross archs.
func FuncKeys(prog *sema.Program, opts Options) map[string]string {
	base := sha256.New()
	fmt.Fprintf(base, "mira-funckey-src v%d opt=%t lenient=%t arch=%s\x00",
		CacheFormatVersion, opts.DisableOpt, opts.Lenient, arch.KeyOf(opts.Arch))
	writeGlobalsHash(base, prog)
	prefix := base.Sum(nil)

	keys := make(map[string]string, len(prog.FuncOrder))
	var keyOf func(q string) string
	keyOf = func(q string) string {
		if k, ok := keys[q]; ok {
			return k
		}
		fi := prog.Funcs[q]
		h := sha256.New()
		h.Write(prefix)
		writeSrc(h, q, fi.Decl.Src)
		for _, c := range fi.Callees {
			io.WriteString(h, keyOf(c))
		}
		k := hex.EncodeToString(h.Sum(nil))
		keys[q] = k
		return k
	}
	for _, q := range prog.FuncOrder {
		keyOf(q)
	}
	return keys
}

// writeGlobalsHash hashes the whole-file context every function compiles
// against: global variable declarations (in declaration order — order
// determines the .data layout), class names and positions (a name
// declared before a function parses as a type in it) and class field
// lists (field offsets feed member access in every method and caller).
func writeGlobalsHash(w io.Writer, prog *sema.Program) {
	for _, name := range prog.GlobalOrder {
		writeSrc(w, "G"+name, prog.Globals[name].Decl.Src)
	}
	for _, d := range prog.File.Decls {
		cd, ok := d.(*ast.ClassDecl)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "C%s\x00%d:%d\x00", cd.Name, cd.ClassPos.Line, cd.ClassPos.Col)
		for _, f := range cd.Fields {
			writeSrc(w, "F", f.Src)
		}
	}
}

// writeSrc writes one declaration's key material: a name, then its
// anchored source text as the first token's (line, col), the text's
// length and the text.
func writeSrc(w io.Writer, name string, src ast.Source) {
	fmt.Fprintf(w, "%s\x00%d:%d:%d\x00", name, src.Pos.Line, src.Pos.Col, len(src.Text))
	io.WriteString(w, src.Text)
}
