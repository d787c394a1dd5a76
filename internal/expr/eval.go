package expr

import (
	"fmt"

	"mira/internal/rational"
)

// Env binds parameter and summation-variable names to exact values.
type Env map[string]rational.Rat

// Bind returns a copy of env with name bound to val.
func (env Env) Bind(name string, val rational.Rat) Env {
	out := make(Env, len(env)+1)
	for k, v := range env {
		out[k] = v
	}
	out[name] = val
	return out
}

// maxSumRange bounds the width of any single enumerated Sum. Summations
// that simplified to closed form are unaffected.
const maxSumRange = 50_000_000

// Eval evaluates e under env.
func Eval(e Expr, env Env) (rational.Rat, error) {
	return eval(e, env)
}

func eval(e Expr, env Env) (rational.Rat, error) {
	switch x := e.(type) {
	case Num:
		return x.Val, nil
	case Param:
		v, ok := env[x.Name]
		if !ok {
			return rational.Rat{}, fmt.Errorf("expr: unbound parameter %q", x.Name)
		}
		return v, nil
	case Var:
		v, ok := env[x.Name]
		if !ok {
			return rational.Rat{}, fmt.Errorf("expr: unbound variable %q", x.Name)
		}
		return v, nil
	case Add:
		acc := rational.Zero
		for _, t := range x.Terms {
			v, err := eval(t, env)
			if err != nil {
				return rational.Rat{}, err
			}
			acc = acc.Add(v)
		}
		return acc, nil
	case Mul:
		acc := rational.One
		for _, f := range x.Factors {
			v, err := eval(f, env)
			if err != nil {
				return rational.Rat{}, err
			}
			acc = acc.Mul(v)
		}
		return acc, nil
	case FloorDiv:
		v, err := eval(x.X, env)
		if err != nil {
			return rational.Rat{}, err
		}
		return v.FloorDiv(x.D), nil
	case Min:
		a, err := eval(x.A, env)
		if err != nil {
			return rational.Rat{}, err
		}
		b, err := eval(x.B, env)
		if err != nil {
			return rational.Rat{}, err
		}
		return a.Min(b), nil
	case Max:
		a, err := eval(x.A, env)
		if err != nil {
			return rational.Rat{}, err
		}
		b, err := eval(x.B, env)
		if err != nil {
			return rational.Rat{}, err
		}
		return a.Max(b), nil
	case Sum:
		return evalSum(x, env)
	}
	return rational.Rat{}, fmt.Errorf("expr: cannot evaluate %T", e)
}

func evalSum(s Sum, env Env) (rational.Rat, error) {
	loR, err := eval(s.Lo, env)
	if err != nil {
		return rational.Rat{}, err
	}
	hiR, err := eval(s.Hi, env)
	if err != nil {
		return rational.Rat{}, err
	}
	// Loop bounds are integral by construction; ceil/floor guard against
	// rational parameter bindings.
	lo, okLo := loR.Ceil().Int64()
	hi, okHi := hiR.Floor().Int64()
	if !okLo || !okHi {
		return rational.Rat{}, fmt.Errorf("expr: sum bounds out of range: [%s, %s]", loR, hiR)
	}
	if hi < lo {
		return rational.Zero, nil
	}
	if hi-lo+1 > maxSumRange {
		return rational.Rat{}, fmt.Errorf("expr: sum over %q enumerates %d points, exceeding limit %d",
			s.Var, hi-lo+1, maxSumRange)
	}
	acc := rational.Zero
	inner := env.Bind(s.Var, rational.Zero)
	for v := lo; v <= hi; v++ {
		inner[s.Var] = rational.FromInt(v)
		val, err := eval(s.Body, inner)
		if err != nil {
			return rational.Rat{}, err
		}
		acc = acc.Add(val)
	}
	return acc, nil
}

// EvalInt64 evaluates e and returns the result as an int64, requiring an
// integral value.
func EvalInt64(e Expr, env Env) (int64, error) {
	v, err := Eval(e, env)
	if err != nil {
		return 0, err
	}
	n, ok := v.Int64()
	if !ok {
		return 0, fmt.Errorf("expr: value %s is not an int64", v)
	}
	return n, nil
}

// EnvFromInts builds an Env from an int64-valued map.
func EnvFromInts(m map[string]int64) Env {
	env := make(Env, len(m))
	for k, v := range m {
		env[k] = rational.FromInt(v)
	}
	return env
}
