package benchprogs

import (
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"path/filepath"
	"sort"
	"strconv"

	"mira/internal/parser"
	"mira/internal/synth"
)

// Source is one named MiniC program.
type Source struct{ Name, Src string }

// Bundled lists every program of this package under its short name.
func Bundled() []Source {
	return []Source{
		{"stream", Stream},
		{"dgemm", Dgemm},
		{"minife", MiniFE},
		{"fig5", Fig5},
		{"listing1", Listing1},
		{"listing2", Listing2},
		{"listing4", Listing4},
		{"listing5", Listing5},
		{"ablation", Ablation},
	}
}

// Corpus returns the bundled programs followed by every Table I row at
// scales 0.25, 0.55 and 0.9: the front-end mix that per-stage benchmarks
// and byte-identity tests share. Rows shrink as perfbench's analyze
// corpus shrinks them, so their shapes stay feasible.
func Corpus() []Source {
	out := Bundled()
	for _, s := range []float64{0.25, 0.55, 0.9} {
		for _, row := range synth.TableIProfiles {
			p := row
			p.Loops = max(1, int(float64(p.Loops)*s+0.5))
			p.InLoops = max(p.Loops, int(float64(p.InLoops)*s+0.5))
			p.Statements = max(p.InLoops, int(float64(p.Statements)*s+0.5))
			p.Name = fmt.Sprintf("%s_%02.0f", row.Name, s*100)
			src, err := synth.Generate(p)
			if err != nil {
				panic(err) // scaled Table I rows are feasible by construction
			}
			out = append(out, Source{p.Name, src})
		}
	}
	return out
}

// ExampleSources returns the MiniC programs that the Go programs under
// dir (the repository's examples/) embed as top-level string constants,
// named "<example>.<constant>" and sorted by name. Constants that do not
// parse as MiniC (JSON descriptions, say) are left out.
func ExampleSources(dir string) ([]Source, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.go"))
	if err != nil {
		return nil, err
	}
	var out []Source
	fset := gotoken.NewFileSet()
	for _, path := range files {
		f, err := goparser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, err
		}
		example := filepath.Base(filepath.Dir(path))
		for _, d := range f.Decls {
			gd, ok := d.(*goast.GenDecl)
			if !ok || gd.Tok != gotoken.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*goast.ValueSpec)
				for i, v := range vs.Values {
					lit, ok := v.(*goast.BasicLit)
					if !ok || lit.Kind != gotoken.STRING {
						continue
					}
					src, err := strconv.Unquote(lit.Value)
					if err != nil {
						return nil, err
					}
					name := example + "." + vs.Names[i].Name
					if _, err := parser.ParseFile(name+".c", src); err != nil {
						continue
					}
					out = append(out, Source{name, src})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
