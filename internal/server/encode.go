package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The /plan and /plan/batch success bodies are written by a direct
// appender instead of encoding/json: a warm K_101 hit is a 65 KB body
// listing 1,275 cycles, and reflecting over them, then re-scanning the
// result to indent it, cost more than everything else the hit does. The
// contract is byte identity with what encoding/json writes for the same
// value:
//
//   - appendPlan(dst, r, true) equals json.Encoder with
//     SetIndent("", "  ") encoding *r, trailing newline included;
//   - appendPlan(dst, r, false) equals json.Marshal(r);
//   - appendBatchLine equals a plain json.Encoder encoding the line
//     (compact, trailing newline).
//
// Field order, omitempty and the empty-covering "cycles": null follow
// the struct tags of planResponse and batchPlanLine. Strings that are not
// plain printable ASCII free of HTML-sensitive characters, and floats
// outside encoding/json's fixed-notation range [1e-6, 1e21), are handed
// to encoding/json itself, so escaping and exponent formatting never
// diverge. A non-finite cost is an error, as it is for encoding/json.
// TestAppendPlanMatchesEncodingJSON holds the contract on random values.

// indents is a newline followed by enough indentation for the deepest
// level a plan body reaches (the vertices of a cycle, depth 3).
const indents = "\n        "

// jsonWriter appends JSON to b, optionally in encoding/json's indented
// layout. first is true while the innermost open object or array has no
// element yet.
type jsonWriter struct {
	b      []byte
	indent bool
	depth  int
	first  bool
	err    error
}

func (w *jsonWriter) newline() {
	if w.indent {
		w.b = append(w.b, indents[:1+2*w.depth]...)
	}
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

// close ends the innermost object or array; an empty one stays "[]" or
// "{}" on one line, as encoding/json's indenter leaves it.
func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.b = append(w.b, c)
	w.first = false
}

// elem starts an array element or object member.
func (w *jsonWriter) elem() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

// key starts an object member; k is a struct tag name, plain ASCII.
func (w *jsonWriter) key(k string) {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':')
	if w.indent {
		w.b = append(w.b, ' ')
	}
}

func (w *jsonWriter) integer(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

func (w *jsonWriter) boolean(v bool) { w.b = strconv.AppendBool(w.b, v) }

func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.fallback(s)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

func (w *jsonWriter) float(f float64) {
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) || math.IsNaN(f) {
		w.fallback(f)
		return
	}
	w.b = strconv.AppendFloat(w.b, f, 'f', -1, 64)
}

// fallback appends encoding/json's own encoding of a scalar it would
// escape or format differently from the fast paths.
func (w *jsonWriter) fallback(v any) {
	out, err := json.Marshal(v)
	if err != nil {
		w.err = err
		return
	}
	w.b = append(w.b, out...)
}

// plan writes r's members in planResponse's field order.
func (w *jsonWriter) plan(r *planResponse) {
	w.open('{')
	w.key("signature")
	w.str(r.Signature)
	w.key("n")
	w.integer(r.N)
	w.key("demand")
	w.str(r.Demand)
	if r.Strategy != "" {
		w.key("strategy")
		w.str(r.Strategy)
	}
	w.key("size")
	w.integer(r.Size)
	if r.Rho != 0 {
		w.key("rho")
		w.integer(r.Rho)
	}
	if r.Length != 0 {
		w.key("length")
		w.integer(r.Length)
	}
	if r.SCCLowerBound != 0 {
		w.key("sccLowerBound")
		w.integer(r.SCCLowerBound)
	}
	w.key("optimal")
	w.boolean(r.Optimal)
	if r.Degraded {
		w.key("degraded")
		w.boolean(true)
	}
	if r.Stale {
		w.key("stale")
		w.boolean(true)
	}
	w.key("method")
	w.str(r.Method)
	w.key("cycles")
	w.intMatrix(r.Cycles)
	w.key("wavelengths")
	w.integer(r.Wavelengths)
	w.key("adms")
	w.integer(r.ADMs)
	w.key("maxTransit")
	w.integer(r.MaxTransit)
	w.key("cost")
	w.float(r.Cost)
	w.key("cacheHit")
	w.boolean(r.CacheHit)
	w.close('}')
}

// intMatrix writes a [][]int; nil slices, outer or inner, encode as null.
func (w *jsonWriter) intMatrix(m [][]int) {
	if m == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('[')
	for _, row := range m {
		w.elem()
		if row == nil {
			w.b = append(w.b, "null"...)
			continue
		}
		w.open('[')
		for _, v := range row {
			w.elem()
			w.integer(v)
		}
		w.close(']')
	}
	w.close(']')
}

// appendPlan appends the JSON body of a /plan response to dst: indented
// with a trailing newline exactly as writeJSON would write it, or compact
// as json.Marshal would. The error is encoding/json's for the same value
// (a non-finite cost); dst's appended bytes are then meaningless.
func appendPlan(dst []byte, r *planResponse, indent bool) ([]byte, error) {
	w := jsonWriter{b: dst, indent: indent}
	w.plan(r)
	if indent {
		w.b = append(w.b, '\n')
	}
	return w.b, w.err
}

// appendBatchLine appends one /plan/batch NDJSON line: compact, newline
// terminated, as json.NewEncoder(w).Encode(l) writes it.
func appendBatchLine(dst []byte, l *batchPlanLine) ([]byte, error) {
	w := jsonWriter{b: dst}
	w.open('{')
	w.key("index")
	w.integer(l.Index)
	if l.Plan != nil {
		w.key("plan")
		w.plan(l.Plan)
	}
	if l.Error != "" {
		w.key("error")
		w.str(l.Error)
	}
	w.close('}')
	w.b = append(w.b, '\n')
	return w.b, w.err
}

// recycle returns the pooled buffer to put back after b was appended into
// buf's spare capacity (buf.AvailableBuffer): buf itself, or — when the
// append outgrew it — a buffer adopting b's larger storage, so the pool
// keeps the grown capacity for the next response.
func recycle(buf *bytes.Buffer, b []byte) *bytes.Buffer {
	if cap(b) > buf.Cap() {
		return bytes.NewBuffer(b[:0])
	}
	return buf
}
