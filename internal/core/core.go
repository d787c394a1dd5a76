// Package core orchestrates the full Mira pipeline of the paper's Fig. 1:
// Input Processor (parse source; compile; decode the object file back from
// bytes), Metric Generator (bridge + polyhedral contexts), and Model
// Generator (parametric model, Python emission), plus access to the
// dynamic-validation machinery.
package core

import (
	"context"
	"fmt"

	"mira/internal/arch"
	"mira/internal/ast"
	"mira/internal/disasm"
	"mira/internal/ir"
	"mira/internal/model"
	"mira/internal/objfile"
	"mira/internal/sema"
	"mira/internal/vm"
)

// Options configures an analysis run.
type Options struct {
	// DisableOpt compiles without optimizations (ablation mode).
	DisableOpt bool
	// Lenient downgrades unanalyzable branches to warnings.
	Lenient bool
	// Arch selects the architecture description; nil means generic.
	Arch *arch.Description
}

// Pipeline is a fully analyzed program.
type Pipeline struct {
	Name     string
	Source   string
	File     *ast.File
	Prog     *sema.Program
	Obj      *objfile.File
	Model    *model.Model
	Arch     *arch.Description
	Warnings []string
	// FuncKeys maps each function's qualified name to its function-content
	// key (see FuncKeys): the identity of its per-function artifacts in
	// every caching layer.
	FuncKeys map[string]string
}

// Analyze runs the whole static pipeline on MiniC source text. The object
// file is round-tripped through its byte encoding so the model is
// genuinely derived from the binary artifact.
func Analyze(name, source string, opts Options) (*Pipeline, error) {
	return AnalyzeContext(context.Background(), name, source, opts)
}

// AnalyzeContext is Analyze with cancellation: the pipeline checks ctx
// between stages (parse, sema, compile, decode, metrics), so an abandoned
// request stops burning CPU at the next stage boundary. A cancelled run
// returns ctx.Err() (possibly wrapped); callers that cache analysis
// results must not cache it. It is AnalyzeIncrementalContext with no
// cache: every function compiles.
func AnalyzeContext(ctx context.Context, name, source string, opts Options) (*Pipeline, error) {
	res, err := AnalyzeIncrementalContext(ctx, name, source, opts, nil)
	if err != nil {
		return nil, err
	}
	return res.Pipeline, nil
}

// NewMachine returns a fresh VM over the compiled binary for dynamic
// validation runs.
func (p *Pipeline) NewMachine() *vm.Machine { return vm.New(p.Obj) }

// PythonModel emits the generated model as Python source (paper Fig. 5).
func (p *Pipeline) PythonModel() string { return p.Model.EmitPython() }

// Disassembly returns an objdump-style listing of fn.
func (p *Pipeline) Disassembly(fn string) (string, error) {
	sym, ok := p.Obj.LookupSym(fn)
	if !ok {
		return "", fmt.Errorf("core: no symbol %q", fn)
	}
	return disasm.Print(disasm.DisassembleFunc(p.Obj, sym)), nil
}

// SourceDot renders the source AST as a dot graph (paper Fig. 2).
func (p *Pipeline) SourceDot() string { return ast.Dot(p.File) }

// BinaryDot renders fn's binary AST as a dot graph (paper Fig. 3).
func (p *Pipeline) BinaryDot(fn string) (string, error) {
	sym, ok := p.Obj.LookupSym(fn)
	if !ok {
		return "", fmt.Errorf("core: no symbol %q", fn)
	}
	return disasm.Dot(disasm.DisassembleFunc(p.Obj, sym)), nil
}

// BucketTableII aggregates per-opcode counts into the paper's Table II
// categories. Shared by every evaluation path (queries and sweeps) so the
// bucketing cannot drift.
func BucketTableII(ops map[ir.Op]int64) map[string]int64 {
	out := map[string]int64{}
	for op, n := range ops {
		out[arch.TableIICategory(op).String()] += n
	}
	return out
}

// BucketFine buckets per-opcode counts into an architecture
// description's fine-grained categories.
func BucketFine(d *arch.Description, ops map[ir.Op]int64) map[string]int64 {
	out := map[string]int64{}
	for op, n := range ops {
		out[d.FineCategory(op)] += n
	}
	return out
}
