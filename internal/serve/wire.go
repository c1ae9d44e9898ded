package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unsafe"
)

// The request codec of the two scoring routes (DESIGN.md §5 "The
// request codec"): the body is read whole into pooled scratch, parsed
// in one pass by a byte-level tokenizer straight into pooled
// []int/[]float64, and the success reply is appended into the same
// scratch and sent with one Write. It accepts exactly what
// json.Decoder + DisallowUnknownFields accepted into predictRequest /
// batchRequest (both now the test oracle, wire_oracle_test.go) and
// decodes it to the same values, with one deliberate difference: bytes
// other than white space after the request value are an error.

// wireField is one key of the closed request vocabulary, as a bit so
// that a route's key set is a mask.
type wireField uint8

const (
	fieldModel wireField = 1 << iota
	fieldX
	fieldIdx
	fieldVal
	fieldIndptr

	predictFields = fieldModel | fieldX | fieldIdx | fieldVal
	batchFields   = fieldModel | fieldIndptr | fieldIdx | fieldVal
)

// wireNames[k] spells wireField(1<<k).
var wireNames = [...]string{"model", "x", "idx", "val", "indptr"}

// fieldOf matches a key the way encoding/json matches struct fields:
// exactly, else under Unicode simple case folding ("IDX", "Indptr").
// Zero means no field has that name.
func fieldOf(key string) wireField {
	for k, name := range wireNames {
		if key == name {
			return 1 << k
		}
	}
	for k, name := range wireNames {
		if strings.EqualFold(key, name) {
			return 1 << k
		}
	}
	return 0
}

// array is one decoded JSON array of numbers, behaving as the []int or
// []float64 struct field encoding/json decoded it into: null makes it
// absent, [] makes it present and empty, a repeated key decodes over
// the previous value, and a null element leaves its slot as found —
// zero, or what an earlier spelling of the same key put there.
type array[T int | float64] struct {
	v   []T  // never nil, so that v[:0] is [] and not absent
	set bool // false is a nil slice to the handlers
	// v[:high] holds this request's writes; beyond it is another
	// request's data, which a null element must read as zero.
	high int
}

// slice is the field as the handlers' Row and CSR arguments take it.
func (a *array[T]) slice() []T {
	if !a.set {
		return nil
	}
	return a.v
}

// clear is the field absent: before a request, and on a null value.
func (a *array[T]) clear() { a.v, a.set, a.high = a.v[:0], false, 0 }

// open starts decoding an array value over whatever the field held.
func (a *array[T]) open() { a.v, a.set = a.v[:0], true }

// null appends a null element.
func (a *array[T]) null() {
	if n := len(a.v); n < a.high {
		a.v = a.v[:n+1]
		return
	}
	var zero T
	a.v = append(a.v, zero)
}

// close ends the array value. encoding/json stores a fresh slice for
// [], which forgets the earlier spellings.
func (a *array[T]) close() {
	if len(a.v) == 0 {
		a.high = 0
	}
	a.high = max(a.high, len(a.v))
}

// wireRequest is a decoded request: the union of the two routes'
// fields (a route's mask says which it accepts).
type wireRequest struct {
	model       string
	x, val      array[float64]
	idx, indptr array[int]
}

func (req *wireRequest) reset() {
	req.model = ""
	req.x.clear()
	req.val.clear()
	req.idx.clear()
	req.indptr.clear()
}

// row is the /predict request's example as Model.Score takes it.
func (req *wireRequest) row() Row {
	return Row{X: req.x.slice(), Idx: req.idx.slice(), Val: req.val.slice()}
}

// decode parses a whole request body. fields is the route's key set.
func (req *wireRequest) decode(body []byte, fields wireField) error {
	req.reset()
	p := parser{b: body}
	if err := p.object(req, fields); err != nil {
		return err
	}
	p.space()
	if p.i < len(body) {
		return p.errorf(p.i, "unexpected %q after the request object", body[p.i])
	}
	return nil
}

// parser is a cursor over the request bytes. Every method starts at
// p.i and leaves p.i after what it consumed; an error leaves p.i
// anywhere.
type parser struct {
	b []byte
	i int
}

func (p *parser) errorf(off int, format string, args ...any) error {
	return fmt.Errorf("offset %d: "+format, append([]any{off}, args...)...)
}

// unexpected is the error for the byte at off, or for the body ending
// there.
func (p *parser) unexpected(off int) error {
	if off >= len(p.b) {
		return p.errorf(off, "unexpected end of JSON input")
	}
	return p.errorf(off, "unexpected %q", p.b[off])
}

func (p *parser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// peek skips white space and returns the next byte without consuming
// it, or 0 at the end of the body (which no caller accepts).
func (p *parser) peek() byte {
	p.space()
	if p.i >= len(p.b) {
		return 0
	}
	return p.b[p.i]
}

// next steps to the next element of the array or member of the object
// that closes with end: first is true just after the opening bracket.
// It reports false once it has consumed the closing one, and true only
// with a byte at p.i.
func (p *parser) next(first bool, end byte) (bool, error) {
	c := p.peek()
	switch {
	case p.i == len(p.b):
	case c == end:
		p.i++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		p.i++
		if c = p.peek(); c != end && p.i < len(p.b) { // "[1,]" is not JSON
			return true, nil
		}
	}
	return false, p.unexpected(p.i)
}

func (p *parser) literal(lit string) error {
	if !strings.HasPrefix(stringView(p.b[p.i:]), lit) {
		return p.unexpected(p.i)
	}
	p.i += len(lit)
	return nil
}

// object parses the request object into req. null is accepted and sets
// nothing, as it is for a struct.
func (p *parser) object(req *wireRequest, fields wireField) error {
	switch p.peek() {
	case 'n':
		return p.literal("null")
	case '{':
		p.i++
	default:
		return p.unexpected(p.i)
	}
	for first := true; ; first = false {
		more, err := p.next(first, '}')
		if err != nil || !more {
			return err
		}
		at := p.i
		key, err := p.str()
		if err != nil {
			return err
		}
		f := fieldOf(key)
		if f&fields == 0 {
			return p.errorf(at, "unknown field %q", key)
		}
		if p.peek() != ':' {
			return p.unexpected(p.i)
		}
		p.i++
		if err := p.value(req, f); err != nil {
			return err
		}
	}
}

// value parses the value of field f.
func (p *parser) value(req *wireRequest, f wireField) error {
	switch f {
	case fieldX:
		return p.floats(&req.x)
	case fieldVal:
		return p.floats(&req.val)
	case fieldIdx:
		return p.ints(&req.idx)
	case fieldIndptr:
		return p.ints(&req.indptr)
	}
	if p.peek() == 'n' {
		return p.literal("null") // leaves "model" as it was
	}
	s, err := p.str()
	req.model = strings.Clone(s) // s may be a view of the pooled body
	return err
}

// array consumes the '[' of an array value and reports true, or a
// whole null and reports false.
func (p *parser) array() (bool, error) {
	switch p.peek() {
	case '[':
		p.i++
		return true, nil
	case 'n':
		return false, p.literal("null")
	}
	return false, p.unexpected(p.i)
}

// element steps to the array's next element (see next) and consumes it
// if it is a null.
func (p *parser) element(first bool) (more, null bool, err error) {
	more, err = p.next(first, ']')
	if more && p.b[p.i] == 'n' {
		return true, true, p.literal("null")
	}
	return more, false, err
}

// floats parses the value of a []float64 field.
func (p *parser) floats(a *array[float64]) error {
	if isArray, err := p.array(); !isArray {
		a.clear()
		return err
	}
	a.open()
	for first := true; ; first = false {
		more, null, err := p.element(first)
		switch {
		case err != nil:
			return err
		case !more:
			a.close()
			return nil
		case null:
			a.null()
			continue
		}
		end, err := p.number()
		if err != nil {
			return err
		}
		// strconv is the one reader of floats: every bit and every range
		// error is its own. The token is already RFC 8259's, so none of
		// the other spellings ParseFloat takes (hex, Inf, "+1", "1_0")
		// reaches it.
		v, err := strconv.ParseFloat(stringView(p.b[p.i:end]), 64)
		if err != nil {
			return p.errorf(p.i, "number %s overflows float64", p.b[p.i:end])
		}
		a.v = append(a.v, v)
		p.i = end
	}
}

// fastIntDigits is how many decimal digits always fit an int: 9 or 18.
const fastIntDigits = 9 * (strconv.IntSize / 32)

// ints parses the value of an []int field: a fraction or an exponent is
// an error even when the value is whole, as it is to encoding/json.
func (p *parser) ints(a *array[int]) error {
	if isArray, err := p.array(); !isArray {
		a.clear()
		return err
	}
	a.open()
	for first := true; ; first = false {
		more, null, err := p.element(first)
		switch {
		case err != nil:
			return err
		case !more:
			a.close()
			return nil
		case null:
			a.null()
			continue
		}
		b, i := p.b, p.i
		neg := b[i] == '-'
		if neg {
			i++
		}
		n, digits := 0, i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			n = n*10 + int(b[i]-'0') // wraps past fastIntDigits; discarded below
		}
		switch {
		case i == digits:
			return p.unexpected(i)
		case b[digits] == '0' && i-digits > 1:
			return p.unexpected(digits + 1) // a leading zero ends the number
		case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
			return p.errorf(p.i, "number with a fraction or exponent in an integer array")
		case i-digits > fastIntDigits:
			n64, err := strconv.ParseInt(stringView(b[p.i:i]), 10, strconv.IntSize)
			if err != nil {
				return p.errorf(p.i, "number %s overflows int", b[p.i:i])
			}
			n = int(n64)
		case neg:
			n = -n
		}
		a.v = append(a.v, n)
		p.i = i
	}
}

// number returns the end of the RFC 8259 number token at p.i:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *parser) number() (end int, err error) {
	b, i := p.b, p.i
	digits := func() bool {
		from := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return 0, p.unexpected(i)
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			return 0, p.unexpected(i)
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, p.unexpected(i)
		}
	}
	return i, nil
}

// str parses the string token at p.i. Plain ASCII is returned as a view
// of the body, valid while the body is; a token holding an escape or a
// byte ≥ 0x80 goes to encoding/json, whose unquoting (escapes,
// surrogate pairs, U+FFFD for invalid UTF-8) stays the one there is.
func (p *parser) str() (string, error) {
	b, start := p.b, p.i
	if start >= len(b) || b[start] != '"' {
		return "", p.unexpected(start)
	}
	plain := true
	for i := start + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			if plain {
				return stringView(b[start+1 : i]), nil
			}
			var s string
			if err := json.Unmarshal(b[start:p.i], &s); err != nil {
				return "", p.errorf(start, "%v", err)
			}
			return s, nil
		case c == '\\':
			plain = false
			i++ // whatever is escaped, it does not end the token
		case c < ' ':
			return "", p.errorf(i, "control character %q in string", c)
		case c >= 0x80:
			plain = false
		}
	}
	return "", p.unexpected(len(b))
}

// stringView is b as a string without a copy, for strconv, key matching
// and prefix tests: none keeps its argument, and the body b points into
// is neither written nor recycled before the handler returns.
func stringView(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// scratch is the working memory of one scoring request: body, decoded
// fields, labels, reply.
type scratch struct {
	body   []byte
	req    wireRequest
	labels []float64
	reply  []byte
}

// maxPooledScratch bounds what an idle scratch may hold on to. A request
// of the default MaxBatch KDD-shaped rows decodes within it; a 32 MiB
// body does not, and its scratch is left to the collector.
const maxPooledScratch = 4 << 20

var scratchPool = sync.Pool{New: func() any {
	sc := new(scratch)
	// array.v must not be nil (see array).
	sc.req.x.v, sc.req.val.v = make([]float64, 0, 64), make([]float64, 0, 64)
	sc.req.idx.v, sc.req.indptr.v = make([]int, 0, 64), make([]int, 0, 64)
	return sc
}}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns sc to the pool. The caller has written the reply:
// the body, the decoded arrays and the reply bytes are all dead.
func putScratch(sc *scratch) {
	r := &sc.req
	held := cap(sc.body) + cap(sc.reply) +
		8*(cap(sc.labels)+cap(r.x.v)+cap(r.val.v)+cap(r.idx.v)+cap(r.indptr.v))
	if held <= maxPooledScratch {
		scratchPool.Put(sc)
	}
}

// readRequest reads the request body whole into sc, through the same
// MaxBytesReader cap as ever, and decodes it. On failure it has
// written the 400.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, sc *scratch, fields wireField) bool {
	err := sc.readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody), r.ContentLength, s.cfg.MaxBody)
	if err == nil {
		err = sc.req.decode(sc.body, fields)
	}
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// readBody is io.ReadAll into the pooled buffer, sized up front when
// the client declared a length the cap allows.
func (sc *scratch) readBody(r io.Reader, declared, limit int64) error {
	buf := sc.body[:0]
	if declared <= limit && declared > int64(cap(buf)) {
		buf = make([]byte, 0, declared)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			sc.body = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// The replies are what json.Encoder wrote for predictResponse and
// batchResponse, byte for byte (TestReplyBytesMatchEncoder).

func appendPredictReply(b []byte, model string, label float64) []byte {
	b = appendJSONString(append(b, `{"model":`...), model)
	b = appendJSONFloat(append(b, `,"label":`...), label)
	return append(b, "}\n"...)
}

func appendBatchReply(b []byte, model string, labels []float64) []byte {
	b = appendJSONString(append(b, `{"model":`...), model)
	b = append(b, `,"labels":[`...)
	for i, y := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, y)
	}
	return append(b, "]}\n"...)
}

// appendJSONString quotes s as json.Encoder does. Anything it would
// escape (control bytes, quote, backslash, <>&, non-ASCII) is left to
// it.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || strings.IndexByte(`"\<>&`, c) >= 0 {
			q, err := json.Marshal(s)
			if err != nil {
				panic(err) // a string always marshals
			}
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendJSONFloat formats a finite f as encoding/json does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21, with the
// exponent's leading zero dropped. Labels are ±1 or a class index, so
// whole numbers skip the float formatter.
func appendJSONFloat(b []byte, f float64) []byte {
	if i := int64(f); float64(i) == f && math.Abs(f) < 1e15 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, i, 10)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b
}

// writeReply sends a success reply in one Write with its length
// declared. The status line is gone by the time a Write can fail, so a
// truncated reply is counted and logged like writeJSON's.
func (s *Server) writeReply(w http.ResponseWriter, reply []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(reply)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(reply); err != nil {
		s.metrics.encodeErrors.Add(1)
		s.logf("serve: %d response truncated mid-body: %v", http.StatusOK, err)
	}
}
