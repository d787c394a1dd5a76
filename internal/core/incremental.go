// Function-granular incremental analysis: the one pipeline body (Analyze
// is this with no cache), built so that each function's expensive
// artifacts — its compiled unit and its generated model — can be served
// from a cache keyed by function-content hash (see FuncKeys) instead of
// being rebuilt. Parsing, semantic analysis, linking, and the
// object-file round trip always run on the new source (they are cheap and
// whole-file by nature); compilation and metric generation run only for
// functions whose content key misses.
//
// The result is bit-identical to compiling and modeling the whole
// program at once (cc.Compile, metrics.Generate): units link the same
// bytes, models regenerate from the same inputs, and warnings concatenate
// in the same function order.
package core

import (
	"bytes"
	"context"
	"fmt"

	"mira/internal/arch"
	"mira/internal/cc"
	"mira/internal/metrics"
	"mira/internal/model"
	"mira/internal/objfile"
	"mira/internal/parser"
	"mira/internal/sema"
)

// FuncArtifact bundles the cacheable per-function products of the
// pipeline under one function-content key. Unit is always present; Model
// and Warnings may be absent (nil) when the artifact was restored from a
// store that persists only object fragments — the pipeline then reuses
// the unit and regenerates the model.
type FuncArtifact struct {
	Key      string
	Name     string
	Unit     *cc.Unit
	Model    *model.Func
	Warnings []string
}

// Delta reports, for one incremental analysis, which functions were
// served from cache and which were recompiled, in link order.
type Delta struct {
	Reused   []string
	Compiled []string
}

// IncrementalResult is the outcome of AnalyzeIncrementalContext: the
// finished pipeline, the reuse delta, and the complete per-function
// artifact set (cache-ready: every artifact carries its unit, model, and
// warnings) for the caller to retain.
type IncrementalResult struct {
	Pipeline  *Pipeline
	Delta     Delta
	Artifacts map[string]*FuncArtifact // keyed by qualified function name
}

// AnalyzeIncrementalContext runs the pipeline on source, consulting lookup
// for per-function artifacts by function-content key and qualified
// function name; lookup may be nil (every function compiles cold). It
// checks ctx at the same stage boundaries as AnalyzeContext. A function
// counts as Reused when its compiled unit came from lookup; if the
// artifact also carried a model, metric generation is skipped for it too.
func AnalyzeIncrementalContext(ctx context.Context, name, source string, opts Options, lookup func(key, qname string) (*FuncArtifact, bool)) (*IncrementalResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	file, err := parser.ParseFile(name, source)
	if err != nil {
		return nil, fmt.Errorf("core: parse: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prog, err := sema.Analyze(file)
	if err != nil {
		return nil, fmt.Errorf("core: sema: %w", err)
	}
	keys := FuncKeys(prog, opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ccOpts := cc.Options{SourceName: name, DisableOpt: opts.DisableOpt}
	order := cc.LinkOrder(prog)
	arts := make(map[string]*FuncArtifact, len(order))
	units := make([]*cc.Unit, 0, len(order))
	var delta Delta
	for _, q := range order {
		key := keys[q]
		if lookup != nil {
			if art, ok := lookup(key, q); ok && art != nil && art.Unit != nil {
				arts[q] = &FuncArtifact{Key: key, Name: q, Unit: art.Unit, Model: art.Model, Warnings: art.Warnings}
				units = append(units, art.Unit)
				delta.Reused = append(delta.Reused, q)
				continue
			}
		}
		u, cerr := cc.CompileFunc(prog, ccOpts, q)
		if cerr != nil {
			return nil, fmt.Errorf("core: compile: %w", cerr)
		}
		arts[q] = &FuncArtifact{Key: key, Name: q, Unit: u}
		units = append(units, u)
		delta.Compiled = append(delta.Compiled, q)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	obj, err := cc.Link(prog, ccOpts, units)
	if err != nil {
		return nil, fmt.Errorf("core: compile: %w", err)
	}
	// Round-trip through the byte encoding: the model must be derived from
	// the portable binary artifact.
	var buf bytes.Buffer
	if err := obj.Encode(&buf); err != nil {
		return nil, fmt.Errorf("core: encode: %w", err)
	}
	decoded, err := objfile.Decode(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("core: decode: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	gen := metrics.NewGenerator(prog, decoded, metrics.Config{Lenient: opts.Lenient})
	m := &model.Model{SourceName: decoded.SourceName, Funcs: map[string]*model.Func{}}
	var warns []string
	for _, q := range prog.FuncOrder {
		art := arts[q]
		if art.Model == nil {
			fm, w, gerr := gen.FuncModel(q)
			if gerr != nil {
				return nil, fmt.Errorf("core: metrics: %w", gerr)
			}
			art.Model, art.Warnings = fm, w
		}
		m.Funcs[q] = art.Model
		m.Order = append(m.Order, q)
		warns = append(warns, art.Warnings...)
	}

	a := opts.Arch
	if a == nil {
		a = arch.Generic()
	}
	p := &Pipeline{
		Name:     name,
		Source:   source,
		File:     file,
		Prog:     prog,
		Obj:      decoded,
		Model:    m,
		Arch:     a,
		Warnings: warns,
		FuncKeys: keys,
	}
	return &IncrementalResult{Pipeline: p, Delta: delta, Artifacts: arts}, nil
}

// EncodeUnit serializes a compiled function unit to its portable byte
// form — the per-function object fragment a persistent cache stores.
func EncodeUnit(u *cc.Unit) []byte { return u.EncodeBytes() }

// DecodeUnit deserializes a unit encoded by EncodeUnit. Callers treat an
// error as a cache miss.
func DecodeUnit(raw []byte) (*cc.Unit, error) { return cc.DecodeUnitBytes(raw) }
