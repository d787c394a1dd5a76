package main

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"mira/internal/engine"
	"mira/internal/roofline"
)

// cellEncoder appends /query and /sweep cells to buf without reflection.
// The bytes are exactly what encoding/json writes for the reflection
// structs that wire_test.go keeps as the oracle: same field order, same
// omissions, same number and string forms. What encoding/json redoes for
// every cell — sorting a map's keys, quoting its keys and the names — is
// done here once per response and reused while it still applies.
type cellEncoder struct {
	buf []byte
	// env and cats hold the key set of the last env and categories map
	// written: every point of an axis sweep shares them.
	env, cats keySet
	// arch and fn are the last architecture and roofline function name
	// written, quoted.
	arch, fn quoted
}

// keySet is a map's key set, sorted, with each key's JSON prefix:
// `{"k":` for the first and `,"k":` for the rest.
type keySet struct {
	keys []string
	enc  []byte
	ends []int // prefix i is enc[ends[i-1]:ends[i]]
}

func (k *keySet) reset(m map[string]int64) {
	k.keys = k.keys[:0]
	for key := range m {
		k.keys = append(k.keys, key)
	}
	slices.Sort(k.keys)
	k.enc, k.ends = k.enc[:0], k.ends[:0]
	for i, key := range k.keys {
		if i == 0 {
			k.enc = append(k.enc, '{')
		} else {
			k.enc = append(k.enc, ',')
		}
		k.enc = appendString(k.enc, key)
		k.enc = append(k.enc, ':')
		k.ends = append(k.ends, len(k.enc))
	}
}

// quoted caches one string's JSON form.
type quoted struct {
	s   string
	enc []byte
}

func (q *quoted) of(s string) []byte {
	if q.enc == nil || q.s != s {
		q.s, q.enc = s, appendString(q.enc[:0], s)
	}
	return q.enc
}

// appendIntMap writes m as encoding/json writes a map[string]int64: keys
// sorted, nil as null.
func (e *cellEncoder) appendIntMap(k *keySet, m map[string]int64) {
	switch {
	case m == nil:
		e.buf = append(e.buf, "null"...)
	case len(m) == 0:
		e.buf = append(e.buf, "{}"...)
	case len(m) == len(k.keys) && e.appendKeyed(k, m):
	default:
		k.reset(m)
		e.appendKeyed(k, m)
	}
}

// appendKeyed writes m in k's key order and reports whether every key of
// k is in m. With equal sizes that makes them the same set; on false buf
// is left as it was.
func (e *cellEncoder) appendKeyed(k *keySet, m map[string]int64) bool {
	mark, start := len(e.buf), 0
	for i, key := range k.keys {
		v, ok := m[key]
		if !ok {
			e.buf = e.buf[:mark]
			return false
		}
		e.buf = append(e.buf, k.enc[start:k.ends[i]]...)
		e.buf = strconv.AppendInt(e.buf, v, 10)
		start = k.ends[i]
	}
	e.buf = append(e.buf, '}')
	return true
}

// appendQueryResponse writes the whole /query document: results[i]
// answers queries[i].
func (e *cellEncoder) appendQueryResponse(key string, queries []wireQuery, results []engine.QueryResult) {
	e.buf = append(e.buf, `{"key":`...)
	e.buf = appendString(e.buf, key)
	e.buf = append(e.buf, `,"results":[`...)
	for i, q := range queries {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.appendQueryCell(q.Fn, q.Kind, &results[i].Value, results[i].Err)
	}
	e.buf = append(e.buf, "]}\n"...)
}

// appendSweepHeader opens a /sweep document up to its points array.
func (e *cellEncoder) appendSweepHeader(key, fn, kind string, total int) {
	e.buf = append(e.buf, `{"key":`...)
	e.buf = appendString(e.buf, key)
	e.buf = append(e.buf, `,"fn":`...)
	e.buf = appendString(e.buf, fn)
	e.buf = append(e.buf, `,"kind":`...)
	e.buf = appendString(e.buf, kind)
	e.buf = append(e.buf, `,"total":`...)
	e.buf = strconv.AppendInt(e.buf, int64(total), 10)
	e.buf = append(e.buf, `,"points":[`...)
}

// appendSweepPoint writes one /sweep point and its trailing newline.
func (e *cellEncoder) appendSweepPoint(p *engine.SweepPoint) {
	e.buf = append(e.buf, `{"env":`...)
	e.appendIntMap(&e.env, p.Env)
	if p.Arch != "" {
		e.buf = append(e.buf, `,"arch":`...)
		e.buf = append(e.buf, e.arch.of(p.Arch)...)
	}
	e.appendValue(&p.Value, p.Err)
	e.buf = append(e.buf, "}\n"...)
}

// appendQueryCell writes one /query result cell.
func (e *cellEncoder) appendQueryCell(fn, kind string, v *engine.Value, err error) {
	e.buf = append(e.buf, `{"fn":`...)
	e.buf = appendString(e.buf, fn)
	e.buf = append(e.buf, `,"kind":`...)
	e.buf = appendString(e.buf, kind)
	e.appendValue(v, err)
	e.buf = append(e.buf, '}')
}

// appendValue writes a cell's value fields, each after a comma: the
// error alone, or whichever of metrics, categories, roofline and pbound
// are set, in that order. A value JSON cannot carry becomes the error.
func (e *cellEncoder) appendValue(v *engine.Value, err error) {
	if err == nil {
		err = nonFinite(v.Roofline)
	}
	if err != nil {
		if msg := err.Error(); msg != "" {
			e.buf = append(e.buf, `,"error":`...)
			e.buf = appendString(e.buf, msg)
		}
		return
	}
	if m := v.Metrics; m != nil {
		e.buf = append(e.buf, `,"metrics":{"instrs":`...)
		e.buf = strconv.AppendInt(e.buf, m.Instrs, 10)
		e.buf = append(e.buf, `,"flops":`...)
		e.buf = strconv.AppendInt(e.buf, m.Flops, 10)
		e.buf = append(e.buf, `,"fpi":`...)
		e.buf = strconv.AppendInt(e.buf, m.FPI(), 10)
		e.buf = append(e.buf, '}')
	}
	if len(v.Categories) > 0 {
		e.buf = append(e.buf, `,"categories":`...)
		e.appendIntMap(&e.cats, v.Categories)
	}
	if r := v.Roofline; r != nil {
		e.buf = append(e.buf, `,"roofline":{"function":`...)
		e.buf = append(e.buf, e.fn.of(r.Function)...)
		e.buf = append(e.buf, `,"instr_ai":`...)
		e.buf = appendFloat(e.buf, r.InstrAI)
		e.buf = append(e.buf, `,"byte_ai":`...)
		e.buf = appendFloat(e.buf, r.ByteAI)
		e.buf = append(e.buf, `,"ridge_ai":`...)
		e.buf = appendFloat(e.buf, r.RidgeAI)
		e.buf = append(e.buf, `,"attainable_gflops":`...)
		e.buf = appendFloat(e.buf, r.AttainableGFlops)
		e.buf = append(e.buf, `,"memory_bound":`...)
		e.buf = strconv.AppendBool(e.buf, r.MemoryBound)
		e.buf = append(e.buf, '}')
	}
	if p := v.PBound; p != nil {
		e.buf = append(e.buf, `,"pbound":{"flops":`...)
		e.buf = strconv.AppendInt(e.buf, p.Flops, 10)
		e.buf = append(e.buf, `,"loads":`...)
		e.buf = strconv.AppendInt(e.buf, p.Loads, 10)
		e.buf = append(e.buf, `,"stores":`...)
		e.buf = strconv.AppendInt(e.buf, p.Stores, 10)
		e.buf = append(e.buf, '}')
	}
}

// nonFinite names the first roofline figure JSON has no number for; nil
// when r is nil or every figure is finite.
func nonFinite(r *roofline.Analysis) error {
	if r == nil {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"instr_ai", r.InstrAI}, {"byte_ai", r.ByteAI},
		{"ridge_ai", r.RidgeAI}, {"attainable_gflops", r.AttainableGFlops},
	} {
		if math.IsInf(f.v, 0) || math.IsNaN(f.v) {
			return fmt.Errorf("roofline %s: %s is %s, which JSON cannot carry", r.Function, f.name,
				strconv.FormatFloat(f.v, 'g', -1, 64))
		}
	}
	return nil
}

// appendFloat writes a finite f as encoding/json does (ES6 number
// formatting): 'f' form, 'e' below 1e-6 and from 1e21 on, with the
// exponent's leading zero dropped (e-07 → e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string the way encoding/json does with
// HTML escaping on: <, > and & as \u00XX, control bytes escaped, invalid
// UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
