package sink

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The record codec's read side is one hand-rolled scanner for exactly
// the JSON a JSONL sink writes, built for the merge, resume and replay
// paths that read every line of a sweep. It parses straight from the
// line bytes. A line is a record when it is one JSON object — whitespace
// between tokens allowed, nothing but whitespace after the closing brace
// — whose first three keys are "scenario" and "series" with string
// values and "cell" with an integer literal that fits an int, whose
// strings are valid UTF-8, and whose nesting stays within maxDepth.
// Everything after the header is payload and may reuse the header names.
//
// Decoded values follow encoding/json with UseNumber-then-Float64:
// numbers decode as float64 (JSON's shortest representation round-trips
// float64 exactly), null as nil, booleans and strings as themselves,
// arrays as []any and nested objects as []Field in key order.

// maxDepth bounds array and object nesting, as encoding/json does.
const maxDepth = 10000

// A Decoder interns strings up to maxInterned bytes, so a stream's keys
// and repeated short values are allocated once instead of once per line.
// The table starts over when it holds internCap strings, which bounds it
// on a stream of ever-new strings.
const (
	maxInterned = 64
	internCap   = 4096
	slabFields  = 256 // fields per slab records' payloads are cut from
)

// smallInts boxes the integral numbers 0..255 once: records are full of
// small counts and indices, and a boxed float64 is immutable.
var smallInts = func() (b [256]any) {
	for i := range b {
		b[i] = float64(i)
	}
	return b
}()

// Decoder decodes record lines, reusing what one line shares with the
// next: keys and short strings come from a bounded intern table, the
// integral numbers 0..255 from shared boxes, and each record's payload
// is cut from a shared slab. A decoded record never aliases the line,
// and nothing it holds is written again, so records may outlive the
// Decoder and cross goroutines. The zero value is ready to use; a
// Decoder is used from one goroutine.
type Decoder struct {
	strs  map[string]*interned // keyed by the string's bytes on the line
	slab  []Field              // unused tail of the slab payloads are cut from
	stack []Field              // fields of the objects being decoded
	elems []any                // elements of the arrays being decoded
}

type interned struct {
	s   string // the string's value
	box any    // s as an interface value, made on first use as one
}

// Decode parses one record line.
func (d *Decoder) Decode(line []byte) (Record, error) {
	d.stack, d.elems = d.stack[:0], d.elems[:0]
	s := scanner{b: line, d: d}
	var rec Record
	if err := s.record(&rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// DecodeJSONL parses one line produced by a JSONL sink back into a
// Record, preserving field order. It is the wire-format inverse the
// shard/merge machinery relies on; a reader of many lines keeps one
// Decoder instead.
func DecodeJSONL(line []byte) (Record, error) {
	return new(Decoder).Decode(line)
}

// Cell checks a record line exactly as Decode does and returns its cell
// index, building nothing: it accepts the same lines, and on a line a
// JSONL sink wrote it allocates nothing.
func Cell(line []byte) (int, error) {
	s := scanner{b: line}
	var rec Record
	err := s.record(&rec)
	return rec.Cell, err
}

// NewLineScanner returns a line scanner sized for record lines (large
// array payloads can exceed bufio's default token limit).
func NewLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	return sc
}

// DecodeJSONLStream decodes every record line from r, in order.
func DecodeJSONLStream(r io.Reader) ([]Record, error) {
	sc := NewLineScanner(r)
	var d Decoder
	var out []Record
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, err := d.Decode(line)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// scanner walks one line. With a nil Decoder it only checks the line.
type scanner struct {
	b []byte
	i int
	d *Decoder
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("sink: decode: offset %d: %s", s.i, fmt.Sprintf(format, args...))
}

// ws skips insignificant whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// eat skips whitespace and consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

var header = [...]string{"scenario", "series", "cell"}

func (s *scanner) record(rec *Record) error {
	if !s.eat('{') {
		return s.errorf("record line must be a JSON object")
	}
	for k, want := range header {
		if k > 0 && !s.eat(',') {
			return s.errorf("record ends before key %q", want)
		}
		raw, esc, err := s.str()
		if err != nil {
			return err
		}
		if !rawIs(raw, esc, want) {
			return s.errorf("key %d is %q, want %q", k, raw, want)
		}
		if !s.eat(':') {
			return s.errorf("want ':' after key %q", want)
		}
		if k == 2 {
			if rec.Cell, err = s.cell(); err != nil {
				return err
			}
			continue
		}
		if raw, esc, err = s.str(); err != nil {
			return fmt.Errorf("%w (the %q value must be a string)", err, want)
		}
		if s.d != nil {
			if k == 0 {
				rec.Scenario = s.d.text(raw, esc)
			} else {
				rec.Series = s.d.text(raw, esc)
			}
		}
	}
	fields, err := s.members(1, false)
	if err != nil {
		return err
	}
	if s.ws(); s.i < len(s.b) {
		return s.errorf("bytes after the record's closing brace")
	}
	if s.d != nil && len(fields) > 0 {
		d := s.d
		if len(d.slab) < len(fields) {
			d.slab = make([]Field, max(len(fields), slabFields))
		}
		rec.Fields = d.pop(d.slab[:len(fields):len(fields)])
		d.slab = d.slab[len(fields):]
	}
	return nil
}

// pop moves the top len(dst) fields of the stack into dst.
func (d *Decoder) pop(dst []Field) []Field {
	top := d.stack[len(d.stack)-len(dst):]
	copy(dst, top)
	clear(top)
	d.stack = d.stack[:len(d.stack)-len(dst)]
	return dst
}

// members parses the rest of an object at depth through its '}': first
// when nothing after its '{' is consumed yet, as opposed to a record's
// header. Its fields are left on top of the Decoder's stack and
// returned as that slice.
func (s *scanner) members(depth int, first bool) ([]Field, error) {
	if depth > maxDepth {
		return nil, s.errorf("nesting deeper than %d", maxDepth)
	}
	mark := 0
	if s.d != nil {
		mark = len(s.d.stack)
	}
	for !s.eat('}') {
		if !first && !s.eat(',') {
			return nil, s.errorf("want ',' or '}'")
		}
		first = false
		raw, esc, err := s.str()
		if err != nil {
			return nil, err
		}
		if !s.eat(':') {
			return nil, s.errorf("want ':' after key %q", raw)
		}
		var key string
		if s.d != nil {
			key = s.d.text(raw, esc)
		}
		v, err := s.value(depth)
		if err != nil {
			return nil, err
		}
		if s.d != nil {
			s.d.stack = append(s.d.stack, Field{Key: key, Value: v})
		}
	}
	if s.d == nil {
		return nil, nil
	}
	return s.d.stack[mark:], nil
}

// value parses one JSON value at depth.
func (s *scanner) value(depth int) (any, error) {
	if s.ws(); s.i >= len(s.b) {
		return nil, s.errorf("line ends where a value should start")
	}
	switch c := s.b[s.i]; {
	case c == '"':
		raw, esc, err := s.str()
		if err != nil || s.d == nil {
			return nil, err
		}
		return s.d.boxed(raw, esc), nil
	case c == '{':
		s.i++
		fields, err := s.members(depth+1, true)
		if err != nil || s.d == nil {
			return nil, err
		}
		if len(fields) == 0 {
			return []Field(nil), nil // as encoding/json's walk leaves it
		}
		return s.d.pop(make([]Field, len(fields))), nil
	case c == '[':
		s.i++
		return s.array(depth + 1)
	case c == 't':
		return s.literal("true", true)
	case c == 'f':
		return s.literal("false", false)
	case c == 'n':
		return s.literal("null", nil)
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	}
	return nil, s.errorf("unexpected %q where a value should start", s.b[s.i])
}

func (s *scanner) array(depth int) (any, error) {
	if depth > maxDepth {
		return nil, s.errorf("nesting deeper than %d", maxDepth)
	}
	mark := 0
	if s.d != nil {
		mark = len(s.d.elems)
	}
	for first := true; !s.eat(']'); first = false {
		if !first && !s.eat(',') {
			return nil, s.errorf("want ',' or ']'")
		}
		v, err := s.value(depth)
		if err != nil {
			return nil, err
		}
		if s.d != nil {
			s.d.elems = append(s.d.elems, v)
		}
	}
	if s.d == nil {
		return nil, nil
	}
	elems := s.d.elems[mark:]
	out := make([]any, len(elems)) // an empty array is [], not null
	copy(out, elems)
	clear(elems)
	s.d.elems = s.d.elems[:mark]
	return out, nil
}

func (s *scanner) literal(lit string, v any) (any, error) {
	if end := s.i + len(lit); end > len(s.b) || string(s.b[s.i:end]) != lit {
		return nil, s.errorf("invalid literal")
	}
	s.i += len(lit)
	return v, nil
}

// numberLit consumes a JSON number literal and reports whether it is an
// integer (no fraction or exponent) and whether it has an exponent.
func (s *scanner) numberLit() (lit []byte, integer, exp bool, err error) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false, false, s.errorf("invalid number")
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false, false, s.errorf("invalid number")
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, false, s.errorf("invalid number")
		}
		i, integer, exp = j, false, true
	}
	lit, s.i = b[s.i:i], i
	return lit, integer, exp, nil
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// number parses a number value as float64. Only an exponent or more
// than 308 characters can overflow float64, so a check-only scan parses
// nothing else.
func (s *scanner) number() (any, error) {
	lit, integer, exp, err := s.numberLit()
	if err != nil {
		return nil, err
	}
	if s.d == nil && !exp && len(lit) <= 308 {
		return nil, nil
	}
	if s.d != nil && integer && len(lit) <= 15 { // exact in float64
		neg, digits := lit[0] == '-', lit
		if neg {
			digits = lit[1:]
		}
		n := 0
		for _, c := range digits {
			n = n*10 + int(c-'0')
		}
		if !neg && n < len(smallInts) {
			return smallInts[n], nil
		}
		f := float64(n)
		if neg {
			f = -f // keeps "-0" negative zero, as ParseFloat does
		}
		return f, nil
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return nil, s.errorf("number %s out of range", lit)
	}
	if s.d == nil {
		return nil, nil
	}
	return f, nil
}

// cell parses the header's cell index: an integer literal that fits an
// int.
func (s *scanner) cell() (int, error) {
	s.ws()
	lit, integer, _, err := s.numberLit()
	if err != nil {
		return 0, fmt.Errorf("%w (the \"cell\" value must be an integer)", err)
	}
	if !integer {
		return 0, s.errorf("cell %s is not an integer", lit)
	}
	n, err := strconv.ParseInt(string(lit), 10, 0)
	if err != nil {
		return 0, s.errorf("cell %s out of range", lit)
	}
	return int(n), nil
}

// str consumes a string literal and returns its bytes between the
// quotes and whether they hold escapes.
func (s *scanner) str() (raw []byte, esc bool, err error) {
	if !s.eat('"') {
		return nil, false, s.errorf("want a string")
	}
	b, ascii := s.b, true
	for i := s.i; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			raw = b[s.i:i]
			if !ascii && !utf8.Valid(raw) {
				return nil, false, s.errorf("string is not valid UTF-8")
			}
			s.i = i + 1
			return raw, esc, nil
		case c == '\\':
			esc = true
			i++
			if i >= len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) || hex4(b[i+1:i+5]) < 0 {
					return nil, false, s.errorf("invalid \\u escape")
				}
				i += 4
			default:
				return nil, false, s.errorf("invalid escape \\%c", b[i])
			}
		case c < 0x20:
			return nil, false, s.errorf("control character in string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false, s.errorf("unterminated string")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// rawIs reports whether a scanned string's value is want.
func rawIs(raw []byte, esc bool, want string) bool {
	if esc {
		return unquote(raw) == want
	}
	return string(raw) == want
}

// unquote resolves the escapes of a scanned string. Like encoding/json,
// it turns a \u escape that is half a surrogate pair, or a pair that
// does not combine, into U+FFFD.
func unquote(raw []byte) string {
	var b strings.Builder
	b.Grow(len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		switch c = raw[i]; c {
		case 'b':
			b.WriteByte('\b')
		case 'f':
			b.WriteByte('\f')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case 'u':
			r := hex4(raw[i+1 : i+5])
			i += 4
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 < len(raw) && raw[i+1] == '\\' && raw[i+2] == 'u' {
					r2 = hex4(raw[i+3 : i+7])
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6
				}
			}
			b.WriteRune(r)
		default: // '"', '\\', '/'
			b.WriteByte(c)
		}
	}
	return b.String()
}

// text returns a scanned string's value.
func (d *Decoder) text(raw []byte, esc bool) string {
	if e := d.slot(raw, esc); e != nil {
		return e.s
	}
	return stringOf(raw, esc)
}

// boxed returns a scanned string's value as an interface value.
func (d *Decoder) boxed(raw []byte, esc bool) any {
	if e := d.slot(raw, esc); e != nil {
		if e.box == nil {
			e.box = e.s
		}
		return e.box
	}
	return stringOf(raw, esc)
}

// slot returns the intern table entry for a short scanned string, adding
// it when it is new, and nil for a string longer than maxInterned.
func (d *Decoder) slot(raw []byte, esc bool) *interned {
	if len(raw) > maxInterned {
		return nil
	}
	if e := d.strs[string(raw)]; e != nil {
		return e
	}
	if d.strs == nil {
		d.strs = make(map[string]*interned)
	} else if len(d.strs) >= internCap {
		clear(d.strs)
	}
	key := string(raw)
	e := &interned{s: key}
	if esc {
		e.s = unquote(raw)
	}
	d.strs[key] = e
	return e
}

func stringOf(raw []byte, esc bool) string {
	if esc {
		return unquote(raw)
	}
	return string(raw)
}

// --- Field access ------------------------------------------------------
//
// Reductions read records through these accessors so one implementation
// serves both record provenances: in-process values (typed ints, bools,
// float slices) and values re-decoded from a shard's JSONL stream
// (everything numeric is float64). The coercions below are exactly the
// ones that make those two views identical.

// Field returns the first field stored under key.
func (r Record) Field(key string) (any, bool) {
	for _, f := range r.Fields {
		if f.Key == key {
			return f.Value, true
		}
	}
	return nil, false
}

// Float returns the field as a float64: NaN when the field is absent,
// null, or not numeric (NaN itself encodes as null, so the two are one
// value on the wire).
func (r Record) Float(key string) float64 {
	v, ok := r.Field(key)
	if !ok {
		return math.NaN()
	}
	f, ok := toFloat(v)
	if !ok {
		return math.NaN()
	}
	return f
}

// Int returns the field truncated to int (0 when absent or non-numeric).
func (r Record) Int(key string) int {
	f := r.Float(key)
	if math.IsNaN(f) {
		return 0
	}
	return int(f)
}

// Bool returns the field as a bool (false when absent or not a bool).
func (r Record) Bool(key string) bool {
	v, _ := r.Field(key)
	b, _ := v.(bool)
	return b
}

// Text returns the field as a string ("" when absent or not a string).
func (r Record) Text(key string) string {
	v, _ := r.Field(key)
	s, _ := v.(string)
	return s
}

// Floats returns the field as a float slice: []float64 values are
// returned directly, decoded []any arrays are coerced element-wise, and
// anything else (including null) is nil.
func (r Record) Floats(key string) []float64 {
	v, ok := r.Field(key)
	if !ok {
		return nil
	}
	switch x := v.(type) {
	case []float64:
		return x
	case []any:
		out := make([]float64, len(x))
		for i, e := range x {
			f, ok := toFloat(e)
			if !ok {
				f = math.NaN()
			}
			out[i] = f
		}
		return out
	}
	return nil
}

// toFloat coerces the numeric types records carry in-process.
func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case nil:
		// JSON null: the encoding of NaN/Inf.
		return math.NaN(), true
	}
	return 0, false
}
