package document

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The document codec: the one JSON path documents take in and out of the
// process (journal records, node wire responses, REST envelopes). It
// works on the document value model directly instead of through
// reflection.
//
// The encoder appends exactly the bytes encoding/json.Marshal produces
// for the same value: map keys sorted, <, > and & HTML-escaped, U+2028
// and U+2029 escaped, invalid UTF-8 replaced by \ufffd, floats in
// encoding/json's ES6 format, nil maps and slices as null, and an error
// (nothing written) for NaN and ±Inf. Values outside the document model
// (structs, []byte, json.Number, ...) are handed to encoding/json, so the
// bytes never depend on which branch encoded them.
//
// The decoder parses straight into normalized values — objects become
// map[string]any, arrays []any, integer literals that fit int64 become
// int64 and every other number float64 (a number too large for float64
// stays its literal string, as Normalize does with json.Number) — so a
// decoded tree needs no second Normalize pass. It accepts exactly the
// input encoding/json accepts, with one value and only whitespace after
// it.

// maxNestingDepth mirrors encoding/json's decoder limit.
const maxNestingDepth = 10000

// ErrUnsupportedValue reports a number JSON cannot represent (NaN, ±Inf).
var ErrUnsupportedValue = errors.New("document: unsupported value")

// AppendJSON appends the JSON encoding of v to dst. On error dst is
// returned unextended.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	out, err := appendValue(dst, v)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// AppendString appends s as a JSON string, escaped exactly as
// encoding/json escapes it.
func AppendString(dst []byte, s string) []byte { return appendString(dst, s) }

// ToJSON encodes the document as compact JSON with sorted keys, byte for
// byte what encoding/json produces. Non-finite numbers are an error.
func (d D) ToJSON() ([]byte, error) {
	return AppendJSON(nil, map[string]any(d))
}

// FromJSON decodes a JSON object into a document of normalized values
// (see ParseJSON). A top-level null yields an empty document.
func FromJSON(data []byte) (D, error) {
	v, err := ParseJSON(data)
	if err != nil {
		return nil, err
	}
	switch m := v.(type) {
	case map[string]any:
		return D(m), nil
	case nil:
		return D{}, nil
	}
	return nil, fmt.Errorf("document: decode: top-level %s is not an object", kindName(v))
}

// ParseJSON decodes one JSON value into normalized document values.
func ParseJSON(data []byte) (any, error) {
	var p Parser
	return p.Parse(data)
}

// A Parser decodes JSON values like ParseJSON, keeping its object-key
// intern table and scratch stacks from one value to the next: values
// parsed by one Parser share the strings of the keys they repeat (a
// journal replay parses thousands of records with the same few keys).
// The zero value is ready to use; a Parser is not safe for concurrent
// use.
type Parser struct{ p parser }

// Parse decodes one JSON value into normalized document values.
func (ps *Parser) Parse(data []byte) (any, error) {
	p := &ps.p
	p.data, p.pos = data, 0
	p.members, p.elems = p.members[:0], p.elems[:0]
	p.skipSpace()
	v, err := p.value(0)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.data) {
		return nil, p.errorf("invalid character %q after top-level value", p.data[p.pos])
	}
	return v, nil
}

func kindName(v any) string {
	switch v.(type) {
	case []any:
		return "array"
	case string:
		return "string"
	case bool:
		return "bool"
	}
	return "number"
}

// ---- encoder ---------------------------------------------------------

func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	case string:
		return appendString(dst, x), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case float64:
		return appendFloat(dst, x)
	case map[string]any:
		return appendObject(dst, x)
	case D:
		return appendObject(dst, x)
	case []any:
		if x == nil {
			return append(dst, "null"...), nil
		}
		return appendArray(dst, len(x), func(dst []byte, i int) ([]byte, error) { return appendValue(dst, x[i]) })
	case []D:
		if x == nil {
			return append(dst, "null"...), nil
		}
		return appendArray(dst, len(x), func(dst []byte, i int) ([]byte, error) { return appendObject(dst, x[i]) })
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("document: encode %T: %w", v, err)
	}
	return append(dst, b...), nil
}

// appendObject writes a map with its keys in sorted order. A nil map is
// null, as in encoding/json.
func appendObject(dst []byte, m map[string]any) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	var buf [32]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	var err error
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, k)
		dst = append(dst, ':')
		if dst, err = appendValue(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

func appendArray(dst []byte, n int, elem func([]byte, int) ([]byte, error)) ([]byte, error) {
	dst = append(dst, '[')
	var err error
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = elem(dst, i); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendFloat formats like encoding/json: shortest representation, 'f'
// notation unless the magnitude is below 1e-6 or at least 1e21, and a
// one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("%w: %s", ErrUnsupportedValue, strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString quotes s the way encoding/json does with HTML escaping on.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ---- decoder ---------------------------------------------------------

type parser struct {
	data []byte
	pos  int
	// keys interns object keys: a result set repeats the same few keys
	// in every document, so each is allocated once per parse.
	keys map[string]string
	// members and elems stack the entries of the objects and arrays
	// being parsed, so each container is allocated once at its final
	// size instead of grown entry by entry.
	members []member
	elems   []any
}

type member struct {
	k string
	v any
}

// maxInternedKeys bounds the intern table for inputs with many distinct
// keys.
const maxInternedKeys = 1024

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("document: decode: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) value(depth int) (any, error) {
	if p.pos >= len(p.data) {
		return nil, p.errorf("unexpected end of JSON input")
	}
	switch c := p.data[p.pos]; {
	case c == '{':
		return p.object(depth + 1)
	case c == '[':
		return p.array(depth + 1)
	case c == '"':
		return p.str()
	case c == '-' || (c >= '0' && c <= '9'):
		return p.number()
	case c == 't':
		return true, p.literal("true")
	case c == 'f':
		return false, p.literal("false")
	case c == 'n':
		return nil, p.literal("null")
	default:
		return nil, p.errorf("invalid character %q looking for beginning of value", c)
	}
}

func (p *parser) literal(word string) error {
	if len(p.data)-p.pos < len(word) || string(p.data[p.pos:p.pos+len(word)]) != word {
		return p.errorf("invalid literal, want %s", word)
	}
	p.pos += len(word)
	return nil
}

func (p *parser) object(depth int) (any, error) {
	if depth > maxNestingDepth {
		return nil, p.errorf("exceeded max depth")
	}
	p.pos++ // '{'
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == '}' {
		p.pos++
		return map[string]any{}, nil
	}
	// An error abandons the whole parse, so only success paths pop.
	base := len(p.members)
	for {
		if p.pos >= len(p.data) || p.data[p.pos] != '"' {
			return nil, p.errorf("expected object key")
		}
		k, err := p.key()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != ':' {
			return nil, p.errorf("expected ':' after object key")
		}
		p.pos++
		p.skipSpace()
		v, err := p.value(depth)
		if err != nil {
			return nil, err
		}
		p.members = append(p.members, member{k, v})
		p.skipSpace()
		if p.pos >= len(p.data) {
			return nil, p.errorf("unexpected end of JSON input")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
			p.skipSpace()
		case '}':
			p.pos++
			ms := p.members[base:]
			m := make(map[string]any, len(ms))
			for _, e := range ms {
				m[e.k] = e.v
			}
			p.members = p.members[:base]
			return m, nil
		default:
			return nil, p.errorf("invalid character %q after object value", p.data[p.pos])
		}
	}
}

func (p *parser) array(depth int) (any, error) {
	if depth > maxNestingDepth {
		return nil, p.errorf("exceeded max depth")
	}
	p.pos++ // '['
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == ']' {
		p.pos++
		return []any{}, nil
	}
	base := len(p.elems)
	for {
		v, err := p.value(depth)
		if err != nil {
			return nil, err
		}
		p.elems = append(p.elems, v)
		p.skipSpace()
		if p.pos >= len(p.data) {
			return nil, p.errorf("unexpected end of JSON input")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
			p.skipSpace()
		case ']':
			p.pos++
			a := append([]any(nil), p.elems[base:]...)
			p.elems = p.elems[:base]
			return a, nil
		default:
			return nil, p.errorf("invalid character %q after array element", p.data[p.pos])
		}
	}
}

// number scans a JSON number literal and converts it as Normalize does a
// json.Number: int64 when the literal parses as one, else float64, else
// (out of float64 range) the literal itself.
func (p *parser) number() (any, error) {
	start := p.pos
	d := p.data
	if d[p.pos] == '-' {
		p.pos++
	}
	switch {
	case p.pos < len(d) && d[p.pos] == '0':
		p.pos++
	case p.pos < len(d) && d[p.pos] >= '1' && d[p.pos] <= '9':
		p.pos = skipDigits(d, p.pos)
	default:
		return nil, p.errorf("invalid number")
	}
	integer := true
	if p.pos < len(d) && d[p.pos] == '.' {
		integer = false
		p.pos++
		if p.pos >= len(d) || d[p.pos] < '0' || d[p.pos] > '9' {
			return nil, p.errorf("invalid number: digit expected after decimal point")
		}
		p.pos = skipDigits(d, p.pos)
	}
	if p.pos < len(d) && (d[p.pos] == 'e' || d[p.pos] == 'E') {
		integer = false
		p.pos++
		if p.pos < len(d) && (d[p.pos] == '+' || d[p.pos] == '-') {
			p.pos++
		}
		if p.pos >= len(d) || d[p.pos] < '0' || d[p.pos] > '9' {
			return nil, p.errorf("invalid number: digit expected in exponent")
		}
		p.pos = skipDigits(d, p.pos)
	}
	lit := d[start:p.pos]
	if integer {
		if i, err := strconv.ParseInt(string(lit), 10, 64); err == nil {
			return i, nil
		}
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return string(lit), nil
	}
	return f, nil
}

func skipDigits(d []byte, i int) int {
	for i < len(d) && d[i] >= '0' && d[i] <= '9' {
		i++
	}
	return i
}

// key decodes an object key, reusing the string of an identical earlier
// key when the key needs no unescaping.
func (p *parser) key() (string, error) {
	start := p.pos + 1
	for i := start; i < len(p.data); i++ {
		c := p.data[i]
		if c == '"' {
			raw := p.data[start:i]
			if k, ok := p.keys[string(raw)]; ok {
				p.pos = i + 1
				return k, nil
			}
			break
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
	}
	k, err := p.str()
	if err == nil && len(p.keys) < maxInternedKeys {
		if p.keys == nil {
			p.keys = make(map[string]string)
		}
		p.keys[k] = k
	}
	return k, err
}

// str decodes a quoted string. Invalid UTF-8 and unpaired surrogate
// escapes become U+FFFD, as in encoding/json.
func (p *parser) str() (string, error) {
	p.pos++ // opening quote
	d := p.data
	start := p.pos
	// Fast path: no escapes and plain ASCII or valid UTF-8.
	for i := start; i < len(d); i++ {
		c := d[i]
		if c == '"' {
			p.pos = i + 1
			return string(d[start:i]), nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
	}
	buf := make([]byte, 0, 16)
	i := start
	for {
		if i >= len(d) {
			p.pos = i
			return "", p.errorf("unexpected end of JSON input in string")
		}
		c := d[i]
		switch {
		case c == '"':
			p.pos = i + 1
			return string(buf), nil
		case c < 0x20:
			p.pos = i
			return "", p.errorf("invalid character %q in string literal", c)
		case c == '\\':
			if i+1 >= len(d) {
				p.pos = i
				return "", p.errorf("unexpected end of JSON input in string escape")
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
				i += 2
			case 'b':
				buf = append(buf, '\b')
				i += 2
			case 'f':
				buf = append(buf, '\f')
				i += 2
			case 'n':
				buf = append(buf, '\n')
				i += 2
			case 'r':
				buf = append(buf, '\r')
				i += 2
			case 't':
				buf = append(buf, '\t')
				i += 2
			case 'u':
				r := hex4(d, i+2)
				if r < 0 {
					p.pos = i
					return "", p.errorf("invalid \\u escape in string literal")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if i+1 < len(d) && d[i] == '\\' && d[i+1] == 'u' {
						r2 := hex4(d, i+2)
						if r2 < 0 {
							p.pos = i
							return "", p.errorf("invalid \\u escape in string literal")
						}
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							buf = utf8.AppendRune(buf, dec)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				buf = utf8.AppendRune(buf, r)
			default:
				p.pos = i
				return "", p.errorf("invalid escape character %q in string literal", e)
			}
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(buf, utf8.RuneError)
			} else {
				buf = append(buf, d[i:i+size]...)
			}
			i += size
		}
	}
}

// hex4 reads four hex digits at d[i:], or -1 when they are not there.
func hex4(d []byte, i int) rune {
	if i+4 > len(d) {
		return -1
	}
	var r rune
	for _, c := range d[i : i+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// CheckStorable returns an error naming a value inside d that JSON
// cannot carry unchanged: a NaN or ±Inf (no JSON form at all), or a key
// or string holding invalid UTF-8 (AppendJSON writes U+FFFD in its
// place, so a journaled document would come back renamed). A store that
// journals its documents refuses them before applying a write.
func CheckStorable(d D) error {
	if path, what := unstorable(map[string]any(d)); what != "" {
		return fmt.Errorf("%w: %s at %q", ErrUnsupportedValue, what, path)
	}
	return nil
}

// unstorable walks v and names the first unstorable value it finds; the
// dotted path is only built on the way back up from a hit, so a clean
// document costs no allocation.
func unstorable(v any) (path, what string) {
	under := func(seg, rest string) string {
		if rest == "" {
			return seg
		}
		return seg + "." + rest
	}
	switch x := v.(type) {
	case float64:
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return "", "non-finite number"
		}
	case string:
		if !utf8.ValidString(x) {
			return "", "invalid UTF-8"
		}
	case map[string]any:
		for k, c := range x {
			if !utf8.ValidString(k) {
				return k, "invalid UTF-8 in key"
			}
			if p, w := unstorable(c); w != "" {
				return under(k, p), w
			}
		}
	case D:
		return unstorable(map[string]any(x))
	case []any:
		for i, c := range x {
			if p, w := unstorable(c); w != "" {
				return under(strconv.Itoa(i), p), w
			}
		}
	}
	return "", ""
}
