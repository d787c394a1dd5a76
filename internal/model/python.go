package model

import (
	"fmt"
	"sort"
	"strings"

	"mira/internal/expr"
	"mira/internal/ir"
)

// PyFuncName renders the paper's generated-function naming convention:
// class and function name joined by underscores plus the original argument
// count (Fig. 5's A_foo_2).
func PyFuncName(f *Func) string {
	base := strings.ReplaceAll(f.Name, "::", "_")
	base = strings.ReplaceAll(base, "operator()", "operator_call")
	return fmt.Sprintf("%s_%d", base, len(f.Params))
}

// EmitPython renders the whole model as a standalone Python module in the
// style of the paper's Fig. 5: one function per source function returning a
// metric dictionary, combined through handle_function_call.
func (m *Model) EmitPython() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Performance model generated by Mira from %s\n", m.SourceName)
	b.WriteString("# Evaluate a function to obtain its inclusive instruction-category counts.\n")
	b.WriteString("# Parameters that static analysis could not resolve are module-level\n")
	b.WriteString("# variables named <param>_<line>; set them before evaluating.\n\n")

	// A fractional constant (a br_frac probability) makes the module
	// compute in exact fractions and round each multiplicity as roundMult
	// does; a model of integer constants needs neither.
	funcs := m.emitPyFuncs(true)
	if strings.Contains(funcs, "Fraction(") {
		b.WriteString("import math\nfrom fractions import Fraction\n\n")
		b.WriteString("def _round(x):\n")
		b.WriteString("    # multiplicities round to nearest, ties up\n")
		b.WriteString("    return math.floor(x + Fraction(1, 2))\n\n")
	} else {
		funcs = m.emitPyFuncs(false)
	}

	b.WriteString("def handle_function_call(caller, callee, count):\n")
	b.WriteString("    for k, v in callee.items():\n")
	b.WriteString("        caller[k] = caller.get(k, 0) + v * count\n\n")

	// Module-level declarations for unresolved call arguments.
	var unresolved []string
	seen := map[string]bool{}
	for _, name := range m.Order {
		f := m.Funcs[name]
		for _, c := range f.Calls {
			for _, p := range c.ArgOrder {
				if c.Args[p] == nil {
					mangled := MangledParam(p, c.Line)
					if !seen[mangled] {
						seen[mangled] = true
						unresolved = append(unresolved, mangled)
					}
				}
			}
		}
	}
	sort.Strings(unresolved)
	for _, u := range unresolved {
		fmt.Fprintf(&b, "%s = None  # user input required (see paper Sec. III-C5)\n", u)
	}
	if len(unresolved) > 0 {
		b.WriteString("\n")
	}

	b.WriteString(funcs)
	return b.String()
}

// emitPyFuncs renders every function, rounding each multiplicity through
// _round when round is set.
func (m *Model) emitPyFuncs(round bool) string {
	var b strings.Builder
	for _, name := range m.Order {
		f := m.Funcs[name]
		if f.Extern {
			fmt.Fprintf(&b, "def %s(%s):\n", PyFuncName(f), strings.Join(pyParams(f), ", "))
			b.WriteString("    # external library function: invisible to static analysis\n")
			b.WriteString("    return {}\n\n")
			continue
		}
		m.emitPyFunc(&b, f, round)
	}
	return b.String()
}

func pyParams(f *Func) []string {
	params := append([]string{}, f.Params...)
	params = append(params, f.AnnotParams...)
	return params
}

func (m *Model) emitPyFunc(b *strings.Builder, f *Func, round bool) {
	mult := expr.Python
	if round {
		mult = func(e expr.Expr) string { return "_round(" + expr.Python(e) + ")" }
	}
	fmt.Fprintf(b, "def %s(%s):\n", PyFuncName(f), strings.Join(pyParams(f), ", "))
	fmt.Fprintf(b, "    metrics = {}\n")
	for _, s := range f.Sites {
		if s.Instrs == 0 {
			continue
		}
		fmt.Fprintf(b, "    # line %d:%d  %s\n", s.Line, s.Col, s.Label())
		fmt.Fprintf(b, "    _n = %s\n", mult(s.Mult))
		for c := 0; c < int(ir.NumCategories); c++ {
			if s.Counts[c] == 0 {
				continue
			}
			fmt.Fprintf(b, "    metrics[%q] = metrics.get(%q, 0) + %d * _n\n",
				ir.Category(c).String(), ir.Category(c).String(), s.Counts[c])
		}
	}
	for _, c := range f.Calls {
		callee := m.Funcs[c.Callee]
		var args []string
		for _, p := range c.ArgOrder {
			if a := c.Args[p]; a != nil {
				args = append(args, expr.Python(a))
			} else {
				args = append(args, MangledParam(p, c.Line))
			}
		}
		// Annotation parameters propagate by name.
		if callee != nil {
			for _, ap := range callee.AnnotParams {
				args = append(args, ap)
			}
		}
		fmt.Fprintf(b, "    # call at line %d:%d\n", c.Line, c.Col)
		calleeName := c.Callee
		if callee != nil {
			calleeName = PyFuncName(callee)
		}
		fmt.Fprintf(b, "    handle_function_call(metrics, %s(%s), %s)\n",
			calleeName, strings.Join(args, ", "), mult(c.Mult))
	}
	fmt.Fprintf(b, "    return metrics\n\n")
}
