package wire

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/geo"
)

// The JSON encoding of the serving messages, written by hand so that no
// serving-path body goes through encoding/json's reflection. AppendJSON
// writes the bytes json.Marshal writes. DecodeJSON reads, in one pass,
// what encoding/json reads, into the same value, with four deliberate
// rejections:
//
//  1. anything but whitespace after the value (json.Decoder stops after
//     the first value, so of a body carrying two check-ins it would
//     store one and drop the other silently);
//  2. a request position that is absent or null, or lacks x or y
//     (encoding/json reads it as the projection origin, a check-in
//     nobody sent);
//  3. a member given twice (encoding/json keeps the last one and merges
//     objects, so a proxy and the edge could read different values);
//  4. a key that names a field only through encoding/json's non-ASCII
//     case folds: U+017F (ſ) for s and U+212A (Kelvin sign) for k.
//
// Requests (ReportRequest, ReportBatchRequest, AdsRequest) reject
// unknown members, as json.Decoder.DisallowUnknownFields does; responses
// skip them, so a client keeps reading a newer edge. ReplDelta has no
// JSON encoding: replication is binary only.

// The deliberate rejections; DecodeJSON's error wraps one of them.
var (
	errTrailingData = errors.New("data after the JSON value")
	errNoPos        = errors.New("pos with x and y is required")
	errDuplicate    = errors.New("member given twice")
	errFoldedKey    = errors.New("key matches a field only by Unicode case folding")
)

// maxJSONDepth is encoding/json's limit on nested objects and arrays.
const maxJSONDepth = 10000

// AppendJSON appends m's JSON encoding — the bytes json.Marshal(m)
// returns — to dst and returns the extended slice. Like json.Marshal it
// fails on NaN and ±Inf and on times outside years 0–9999; dst is then
// returned at its original length.
func AppendJSON(dst []byte, m Message) ([]byte, error) {
	e := jsonEncoder{buf: dst}
	// A type switch rather than an interface method: static calls let
	// the encoder stay on the stack.
	switch m := m.(type) {
	case *ReportRequest:
		m.appendJSON(&e)
	case *ReportBatchRequest:
		m.appendJSON(&e)
	case *ReportBatchResponse:
		m.appendJSON(&e)
	case *AdsRequest:
		m.appendJSON(&e)
	case *AdsResponse:
		m.appendJSON(&e)
	case *StatsResponse:
		m.appendJSON(&e)
	case *ErrorResponse:
		m.appendJSON(&e)
	default:
		return dst, fmt.Errorf("wire: %T has no JSON encoding", m)
	}
	if e.err != nil {
		return e.buf[:len(dst)], e.err
	}
	return e.buf, nil
}

// DecodeJSON decodes the JSON document data into m, overwriting all of
// m. Strings are copied out of data, so data may be reused afterwards.
func DecodeJSON(data []byte, m Message) error {
	d := jsonDecoder{data: data}
	switch m := m.(type) {
	case *ReportRequest:
		d.strict = true
		m.readJSON(&d)
	case *ReportBatchRequest:
		d.strict = true
		m.readJSON(&d)
	case *AdsRequest:
		d.strict = true
		m.readJSON(&d)
	case *ReportBatchResponse:
		m.readJSON(&d)
	case *AdsResponse:
		m.readJSON(&d)
	case *StatsResponse:
		m.readJSON(&d)
	case *ErrorResponse:
		m.readJSON(&d)
	default:
		return fmt.Errorf("wire: %T has no JSON encoding", m)
	}
	if d.ws(); d.err == nil && d.off < len(d.data) {
		d.fail(errTrailingData)
	}
	return d.err
}

// --- encoding ---

// jsonEncoder appends JSON to buf; the first value JSON cannot carry
// sets err.
type jsonEncoder struct {
	buf []byte
	err error
}

func (e *jsonEncoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *jsonEncoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *jsonEncoder) int(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

func (e *jsonEncoder) bool(v bool) { e.buf = strconv.AppendBool(e.buf, v) }

// float writes v as encoding/json does: the shortest 'f' form, or 'e'
// below 1e-6 and from 1e21 with a one-digit exponent unpadded (e-7).
func (e *jsonEncoder) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.fail(fmt.Errorf("wire: JSON cannot encode %v", v))
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.buf = b
}

func (e *jsonEncoder) point(p geo.Point) {
	e.raw(`{"x":`)
	e.float(p.X)
	e.raw(`,"y":`)
	e.float(p.Y)
	e.raw("}")
}

// jsonSafe marks the ASCII bytes json.Marshal writes unescaped: every
// printable byte but the quote, the backslash and the HTML-escaped < > &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// The runes beyond ASCII that encoding/json treats specially.
const (
	lineSeparator      = 0x2028 // escaped by json.Marshal, as is
	paragraphSeparator = 0x2029 // this one, for JSONP
	longS              = 0x017F // matches s in encoding/json's key folding
	kelvinSign         = 0x212A // matches k
)

// str writes s as json.Marshal does: HTML escaping on, U+2028 and
// U+2029 escaped, and each invalid UTF-8 byte as the escape of U+FFFD.
func (e *jsonEncoder) str(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
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
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == lineSeparator || r == paragraphSeparator:
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
	e.buf = append(b, '"')
}

// time writes t as time.Time.MarshalJSON does, and fails where it
// fails: RFC 3339 has only four-digit years and zone hours below 24.
func (e *jsonEncoder) time(t time.Time) {
	b := append(e.buf, '"')
	year := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	switch {
	case b[year+len("9999")] != '-':
		e.fail(fmt.Errorf("wire: JSON cannot encode time %v: year outside of range [0,9999]", t))
	case b[len(b)-1] != 'Z':
		c := b[len(b)-len("Z07:00")]
		if hours := 10*(b[len(b)-5]-'0') + (b[len(b)-4] - '0'); ('0' <= c && c <= '9') || hours >= 24 {
			e.fail(fmt.Errorf("wire: JSON cannot encode time %v: timezone hour outside of range [0,23]", t))
		}
	}
	e.buf = append(b, '"')
}

// --- decoding ---

// jsonDecoder is a cursor over one JSON document with a sticky error.
// Every reader method skips the whitespace before its value.
type jsonDecoder struct {
	data  []byte
	off   int
	depth int // objects and arrays open at the cursor
	// strict rejects unknown members instead of skipping them.
	strict bool
	err    error
}

func (d *jsonDecoder) fail(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: JSON offset %d: %w", d.off, err)
	}
}

// syntax fails with a description of what was expected at the cursor.
func (d *jsonDecoder) syntax(want string) {
	if d.off >= len(d.data) {
		d.fail(fmt.Errorf("unexpected end of input, want %s", want))
		return
	}
	d.fail(fmt.Errorf("unexpected %q, want %s", d.data[d.off], want))
}

func (d *jsonDecoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the byte at the cursor: 0 at the
// end of the input or after an error.
func (d *jsonDecoder) peek() byte {
	if d.ws(); d.err != nil || d.off >= len(d.data) {
		return 0
	}
	return d.data[d.off]
}

func (d *jsonDecoder) literal(lit string) {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		d.syntax(lit)
		return
	}
	d.off += len(lit)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number scans a number at the cursor by the JSON grammar and returns
// its bytes.
func (d *jsonDecoder) number() []byte {
	data, start := d.data, d.off
	i := start
	digits := func() bool {
		n := i
		for i < len(data) && isDigit(data[i]) {
			i++
		}
		return i > n
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if !digits() {
		d.off = i
		d.syntax("a digit")
		return nil
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			d.off = i
			d.syntax("a digit")
			return nil
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			d.off = i
			d.syntax("a digit")
			return nil
		}
	}
	d.off = i
	return data[start:i]
}

// numeric returns the bytes of the number at the cursor, or nil for
// null.
func (d *jsonDecoder) numeric(want string) []byte {
	switch c := d.peek(); {
	case c == 'n':
		d.literal("null")
		return nil
	case c == '-' || isDigit(c):
		return d.number()
	}
	d.syntax(want)
	return nil
}

// float reads a float64 member; false means null, which leaves it zero.
// Parsing with strconv.ParseFloat, as encoding/json does, rejects
// numbers out of float64's range (1e400).
func (d *jsonDecoder) float() (float64, bool) {
	num := d.numeric("a number")
	if num == nil {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		d.fail(err)
		return 0, false
	}
	return f, true
}

// int reads an int member, null leaving it zero. strconv.ParseInt
// rejects 1.0, 1e1 and out-of-range values, as in encoding/json.
func (d *jsonDecoder) int() int {
	num := d.numeric("an integer")
	if num == nil {
		return 0
	}
	v, err := strconv.ParseInt(string(num), 10, 0)
	if err != nil {
		d.fail(err)
		return 0
	}
	return int(v)
}

// bool reads a bool member, null leaving it false.
func (d *jsonDecoder) bool() bool {
	switch d.peek() {
	case 't':
		d.literal("true")
		return d.err == nil
	case 'f':
		d.literal("false")
		return false
	case 'n':
		d.literal("null")
		return false
	}
	d.syntax("true or false")
	return false
}

// str reads a string member, null leaving it empty. The value is
// copied out of the input, never aliased.
func (d *jsonDecoder) str() string { return d.strReuse("") }

// strReuse is str for a member that often repeats prev, as the user ID
// of one device's batch does: a value written without escapes that
// equals prev reads as prev itself, without allocating.
func (d *jsonDecoder) strReuse(prev string) string {
	switch d.peek() {
	case '"':
		raw, plain := d.stringBytes()
		if plain {
			if string(raw) == prev {
				return prev
			}
			return string(raw)
		}
		var buf [64]byte
		return string(appendUnquoted(buf[:0], raw))
	case 'n':
		d.literal("null")
		return ""
	}
	d.syntax("a string")
	return ""
}

// jsonPlain marks the bytes a string's content can hold that need no
// decoding: printable ASCII other than the quote and the backslash.
var jsonPlain = func() (plain [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		plain[c] = c != '"' && c != '\\'
	}
	return plain
}()

// stringBytes scans the string at the cursor and returns its content
// between the quotes. plain reports valid UTF-8 without escapes, which
// is the string's value as it stands; otherwise appendUnquoted decodes
// it.
func (d *jsonDecoder) stringBytes() (raw []byte, plain bool) {
	data := d.data
	start := d.off + 1
	plain = true
	ascii := true
	for i := start; ; {
		for i < len(data) && jsonPlain[data[i]] {
			i++
		}
		if i >= len(data) {
			d.off = i
			d.syntax(`a closing "`)
			return nil, false
		}
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			raw = data[start:i]
			if !ascii && plain {
				plain = utf8.Valid(raw)
			}
			return raw, plain
		case c == '\\':
			plain = false
			n := 2
			if i+1 < len(data) && data[i+1] == 'u' {
				n = 6
			}
			if i+n > len(data) || !validEscape(data[i+1:i+n]) {
				d.off = i
				d.syntax("a valid escape")
				return nil, false
			}
			i += n
		case c < ' ':
			d.off = i
			d.syntax("no control character in a string")
			return nil, false
		default:
			ascii = false
			i++
		}
	}
}

// validEscape reports whether esc, the bytes after a backslash, is one
// of JSON's escapes.
func validEscape(esc []byte) bool {
	switch esc[0] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return true
	case 'u':
		return hex4(esc[1:]) >= 0
	}
	return false
}

// hex4 parses four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
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

// appendUnquoted appends the value of a string's raw content, which
// stringBytes validated, to dst. As in encoding/json, a \u escape of a
// surrogate pair is one rune, and a lone surrogate and each invalid
// UTF-8 byte read as U+FFFD.
func appendUnquoted(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
			continue
		}
		if c != '\\' {
			dst = append(dst, c)
			i++
			continue
		}
		switch raw[i+1] {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				low := rune(-1)
				if len(raw)-i >= 6 && raw[i] == '\\' && raw[i+1] == 'u' {
					low = hex4(raw[i+2:])
				}
				if pair := utf16.DecodeRune(r, low); pair != utf8.RuneError {
					r = pair
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			dst = utf8.AppendRune(dst, r)
			continue
		default: // '"', '\\', '/'
			dst = append(dst, raw[i+1])
		}
		i += 2
	}
	return dst
}

// jsonObject is the state of one object being read: the names of its
// known fields, the ones seen so far, and the current member's field.
type jsonObject struct {
	fields []string
	seen   uint32
	field  int
	n      int // members read
	closed bool
}

// object opens the object at the cursor. null yields an object with no
// members, which leaves the value zero, as in encoding/json.
func (d *jsonDecoder) object(fields []string) jsonObject {
	o := jsonObject{fields: fields}
	switch d.peek() {
	case '{':
		d.off++
		d.depth++
	case 'n':
		d.literal("null")
		o.closed = true
	default:
		d.syntax("an object")
		o.closed = true
	}
	return o
}

// next advances to o's next member with a known field, leaving the
// cursor on its value with o.field set, and reports false once the
// object is closed. It skips unknown members, or rejects them when
// strict.
func (d *jsonDecoder) next(o *jsonObject) bool {
	for d.err == nil && !o.closed {
		c := d.peek()
		if c == '}' {
			d.off++
			d.depth--
			o.closed = true
			return false
		}
		if o.n > 0 {
			if c != ',' {
				d.syntax(", or }")
				return false
			}
			d.off++
		}
		o.n++
		field := d.key(o.fields)
		if field < 0 {
			d.skip()
			continue
		}
		if o.seen&(1<<field) != 0 {
			d.fail(fmt.Errorf("%w: %q", errDuplicate, o.fields[field]))
			return false
		}
		o.seen |= 1 << field
		o.field = field
		return d.err == nil
	}
	return false
}

// key reads a member name and its colon and returns the index of the
// field it names, or -1 for a member to skip; in strict mode that is an
// error. Like encoding/json it matches a name exactly or
// ASCII-case-insensitively; a name that matches only through a
// non-ASCII fold is an error.
func (d *jsonDecoder) key(fields []string) int {
	raw, plain := d.memberName()
	if d.err != nil {
		return -1
	}
	name := raw
	var buf [32]byte
	if !plain {
		name = appendUnquoted(buf[:0], raw)
	}
	for i, f := range fields {
		if string(name) == f {
			return i
		}
	}
	for i, f := range fields {
		if match, folded := foldEqual(name, f); match {
			if folded {
				d.fail(fmt.Errorf("%w: %q for %q", errFoldedKey, string(name), f))
				return -1
			}
			return i
		}
	}
	if d.strict {
		d.fail(fmt.Errorf("unknown member %q", string(name)))
	}
	return -1
}

// foldEqual reports whether name equals field, a lower-case ASCII name,
// under encoding/json's case folding, and whether that took one of its
// two non-ASCII folds: U+017F for s and U+212A for k.
func foldEqual(name []byte, field string) (match, folded bool) {
	j := 0
	for i := 0; i < len(name); j++ {
		r, size := rune(name[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(name[i:])
		}
		i += size
		switch {
		case 'A' <= r && r <= 'Z':
			r += 'a' - 'A'
		case r == longS:
			r, folded = 's', true
		case r == kelvinSign:
			r, folded = 'k', true
		}
		if j >= len(field) || rune(field[j]) != r {
			return false, false
		}
	}
	return j == len(field), folded
}

// skip skips the value at the cursor, whatever its shape. It keeps the
// open containers in a stack instead of recursing, and fails past
// maxJSONDepth levels, where encoding/json stops.
func (d *jsonDecoder) skip() {
	var stack [32]byte
	open := stack[:0] // the closing byte of each open container
	for d.err == nil {
		// One value.
		switch c := d.peek(); c {
		case '{', '[':
			if d.depth+len(open) >= maxJSONDepth {
				d.fail(errors.New("exceeded max depth"))
				return
			}
			d.off++
			end := byte('}')
			if c == '[' {
				end = ']'
			}
			if d.peek() != end {
				open = append(open, end)
				if c == '{' {
					d.memberName()
				}
				continue
			}
			d.off++
		case '"':
			d.stringBytes()
		case 't':
			d.literal("true")
		case 'f':
			d.literal("false")
		case 'n':
			d.literal("null")
		default:
			if c != '-' && !isDigit(c) {
				d.syntax("a value")
				return
			}
			d.number()
		}
		// Close the containers the value ends, then step past the comma
		// to the next element or member.
		for len(open) > 0 && d.peek() == open[len(open)-1] {
			d.off++
			open = open[:len(open)-1]
		}
		if len(open) == 0 || d.err != nil {
			return
		}
		end := open[len(open)-1]
		if d.peek() != ',' {
			d.syntax(", or " + string(end))
			return
		}
		d.off++
		if end == '}' {
			d.memberName()
		}
	}
}

// memberName scans a member name and its colon, and returns the name
// as stringBytes does.
func (d *jsonDecoder) memberName() (raw []byte, plain bool) {
	if d.peek() != '"' {
		d.syntax("a member name")
		return nil, false
	}
	raw, plain = d.stringBytes()
	if d.peek() != ':' {
		d.syntax(":")
		return nil, false
	}
	d.off++
	return raw, plain
}

// array opens the array at the cursor; false means null, which leaves
// the slice nil. Read its elements while more reports true.
func (d *jsonDecoder) array() bool {
	switch d.peek() {
	case '[':
		d.off++
		d.depth++
		return true
	case 'n':
		d.literal("null")
		return false
	}
	d.syntax("an array")
	return false
}

// more reports whether the open array has another element after the n
// read, and consumes its closing ] when it has not.
func (d *jsonDecoder) more(n int) bool {
	switch c := d.peek(); {
	case d.err != nil:
		return false
	case c == ']':
		d.off++
		d.depth--
		return false
	case n == 0:
		return true
	case c == ',':
		d.off++
		return true
	}
	d.syntax(", or ]")
	return false
}

// exactCopy returns a copy of s in a slice of its own length, non-nil
// even when empty, as encoding/json decodes []. Arrays are read into a
// stack buffer first, so a short one costs one allocation, not one per
// doubling of its length.
func exactCopy[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}

var pointFields = []string{"x", "y"}

// point reads a geo.Point and reports whether it was given whole: not
// null, with both coordinates present and non-null. encoding/json
// leaves what is missing zero; a request requires the whole point.
func (d *jsonDecoder) point() (p geo.Point, whole bool) {
	var set [2]bool
	o := d.object(pointFields)
	for d.next(&o) {
		if o.field == 0 {
			p.X, set[0] = d.float()
		} else {
			p.Y, set[1] = d.float()
		}
	}
	return p, set[0] && set[1]
}

// time reads a time the way encoding/json does: the raw value, null
// included, goes to time.Time.UnmarshalJSON.
func (d *jsonDecoder) time() (t time.Time) {
	d.ws()
	start := d.off
	d.skip()
	if d.err == nil {
		if err := t.UnmarshalJSON(d.data[start:d.off]); err != nil {
			d.fail(err)
		}
	}
	return t
}
