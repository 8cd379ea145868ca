package ledger

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/span"
	"repro/internal/tracediff"
)

// The ledger's JSON codec for its two hot formats, record.json and the
// cells.jsonl journal. It is written against this package's schema
// (Record, Entry and the types they embed) instead of going through
// reflection, and it reproduces encoding/json byte for byte:
//
//   - the encoder emits exactly json.Marshal's bytes (compact, for
//     journal lines) or json.MarshalIndent(v, "", "  ")'s (record.json):
//     field order, omitempty, HTML escapes, U+2028/2029 and invalid
//     UTF-8 coerced to \ufffd;
//   - the decoder accepts what json.Unmarshal accepts into these types
//     and builds the same values: any whitespace and key order, unknown
//     keys skipped, keys matched exactly and then case-insensitively,
//     repeated keys and nulls applied the way json.Unmarshal applies
//     them, and strings unescaped by its rules.
//
// The fuzz targets in fuzz_test.go hold both directions to
// encoding/json as the oracle. A field added to any of these types
// must be added here too, under a lowercase JSON name (see foldKey);
// the oracles fail until it is.

// --- Encoder ---

// encoder appends JSON to b: json.Marshal's compact form, or with
// indent set the two-space form of json.MarshalIndent(v, "", "  ").
type encoder struct {
	b      []byte
	indent bool
	depth  int
	// first is set while the innermost open container has no member.
	first bool
}

func (e *encoder) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.first = true
}

// close ends the innermost container; an empty one renders as {} or [].
func (e *encoder) close(c byte) {
	e.depth--
	if !e.first {
		e.newline()
	}
	e.b = append(e.b, c)
	e.first = false
}

// member starts the next member of the innermost container.
func (e *encoder) member() {
	if !e.first {
		e.b = append(e.b, ',')
	}
	e.first = false
	e.newline()
}

func (e *encoder) newline() {
	if !e.indent {
		return
	}
	e.b = append(e.b, '\n')
	n := 2 * e.depth
	for ; n > len(spaces); n -= len(spaces) {
		e.b = append(e.b, spaces...)
	}
	e.b = append(e.b, spaces[:n]...)
}

const spaces = "                                "

// key starts an object member. Field names are plain ASCII and need no
// escaping.
func (e *encoder) key(name string) {
	e.member()
	e.b = append(append(append(e.b, '"'), name...), '"', ':')
	if e.indent {
		e.b = append(e.b, ' ')
	}
}

func (e *encoder) str(name, s string) {
	e.key(name)
	e.b = appendJSONString(e.b, s)
}

func (e *encoder) int(name string, v int64) {
	e.key(name)
	e.b = strconv.AppendInt(e.b, v, 10)
}

func (e *encoder) uint(name string, v uint64) {
	e.key(name)
	e.b = strconv.AppendUint(e.b, v, 10)
}

func (e *encoder) bool(name string, v bool) {
	e.key(name)
	e.b = strconv.AppendBool(e.b, v)
}

// strings renders a string list; nil renders as null, the way
// json.Marshal renders a nil slice.
func (e *encoder) strings(name string, ss []string) {
	e.key(name)
	if ss == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.open('[')
	for _, s := range ss {
		e.member()
		e.b = appendJSONString(e.b, s)
	}
	e.close(']')
}

func (e *encoder) record(r *Record) {
	e.open('{')
	e.str("run_id", r.RunID)
	e.key("config")
	e.open('{')
	e.str("registry_digest", r.Config.RegistryDigest)
	e.strings("versions", r.Config.Versions)
	e.int("seed", r.Config.Seed)
	e.bool("continue_on_error", r.Config.ContinueOnError)
	e.str("build_version", r.Config.BuildVersion)
	e.close('}')
	e.int("cells", int64(r.Cells))
	e.int("completed", int64(r.Completed))
	e.str("digest", r.Digest)
	e.key("entries")
	if r.Entries == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.open('[')
		for _, x := range r.Entries {
			e.member()
			e.entry(x)
		}
		e.close(']')
	}
	e.close('}')
}

func (e *encoder) entry(x *Entry) {
	if x == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.open('{')
	e.str("scenario", x.Scenario)
	e.str("version", x.Version)
	e.str("mode", x.Mode)
	if x.Seed != 0 {
		e.int("seed", x.Seed)
	}
	if x.SpecDigest != "" {
		e.str("spec_digest", x.SpecDigest)
	}
	if x.Profiled {
		e.bool("profiled", true)
	}
	if v := x.Verdict; v != nil {
		e.key("verdict")
		e.open('{')
		e.bool("erroneous_state", v.ErroneousState)
		e.bool("security_violation", v.SecurityViolation)
		e.bool("handled", v.Handled)
		if v.ScriptError != "" {
			e.str("script_error", v.ScriptError)
		}
		e.close('}')
	}
	if cv := x.Equivalence; cv != nil {
		e.key("equivalence")
		e.open('{')
		e.str("use_case", cv.UseCase)
		e.str("version", cv.Version)
		e.str("tier", string(cv.Tier))
		e.str("basis", string(cv.Basis))
		if cv.RefVersion != "" {
			e.str("ref_version", cv.RefVersion)
		}
		e.int("base_events", int64(cv.BaseEvents))
		e.int("injection_events", int64(cv.InjectionEvents))
		if dv := cv.Divergence; dv != nil {
			e.key("divergence")
			e.open('{')
			e.int("index", int64(dv.Index))
			e.str("a", dv.A)
			e.str("b", dv.B)
			if dv.ALine != 0 {
				e.int("a_line", int64(dv.ALine))
			}
			if dv.BLine != 0 {
				e.int("b_line", int64(dv.BLine))
			}
			e.close('}')
		}
		e.close('}')
	}
	if c := x.Coverage; c != nil {
		e.key("coverage")
		e.open('{')
		e.str("digest", c.Digest)
		e.int("edges", int64(c.Edges))
		if len(c.EdgeList) > 0 {
			e.key("edge_list")
			e.open('[')
			for i := range c.EdgeList {
				ed := &c.EdgeList[i]
				e.member()
				e.open('{')
				e.str("family", string(ed.Family))
				e.str("name", ed.Name)
				e.uint("count", ed.Count)
				e.close('}')
			}
			e.close(']')
		}
		e.close('}')
	}
	if l := x.Latency; l != nil {
		e.key("latency")
		e.open('{')
		e.bool("found", l.Found)
		e.uint("trigger_v", l.TriggerV)
		e.uint("evidence_v", l.EvidenceV)
		e.int("events", l.Events)
		e.close('}')
	}
	if x.SpanV != 0 {
		e.uint("span_v", x.SpanV)
	}
	if len(x.Effects) > 0 {
		e.strings("effects", x.Effects)
	}
	if len(x.StateAudit) > 0 {
		e.strings("state_audit", x.StateAudit)
	}
	if ce := x.Error; ce != nil {
		e.key("error")
		e.open('{')
		e.str("cell", ce.Cell)
		e.str("class", string(ce.Class))
		e.str("message", ce.Message)
		if ce.Stack != "" {
			e.str("stack", ce.Stack)
		}
		e.close('}')
	}
	if x.WallNS != 0 {
		e.int("wall_ns", x.WallNS)
	}
	e.close('}')
}

// appendEntryJSON appends the journal line for x: json.Marshal(x),
// without the newline.
func appendEntryJSON(b []byte, x *Entry) []byte {
	e := encoder{b: b}
	e.entry(x)
	return e.b
}

// appendRecordJSON appends rec as json.MarshalIndent(rec, "", "  ")
// renders it.
func appendRecordJSON(b []byte, rec *Record) []byte {
	e := encoder{b: b, indent: true}
	e.record(rec)
	return e.b
}

// appendJSONString appends s as json.Marshal quotes a string: HTML
// characters, control characters, U+2028 and U+2029 escaped, and each
// byte of invalid UTF-8 replaced by \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if htmlSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// htmlSafe marks the ASCII bytes json.Marshal copies into a string
// unescaped.
var htmlSafe = asciiSet(func(c byte) bool { return c != '<' && c != '>' && c != '&' })

// plain marks the bytes a JSON string holds as themselves: ASCII that
// is neither a control character, a quote nor a backslash.
var plain = asciiSet(func(byte) bool { return true })

// asciiSet returns the printable ASCII bytes other than '"' and '\\'
// that keep accepts.
func asciiSet(keep func(c byte) bool) (set [256]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		set[c] = c != '"' && c != '\\' && keep(c)
	}
	return set
}

// --- Decoder ---

// maxDepth is encoding/json's nesting limit; deeper input is rejected
// there, so it is rejected here.
const maxDepth = 10000

// decoder reads JSON from s. Strings without escapes or invalid UTF-8
// are returned as substrings of s, so decoding a whole file costs one
// copy of it.
type decoder struct {
	s     string
	i     int
	depth int

	// Scratch space reused across values.
	buf     []byte
	strs    []string
	edges   []coverage.Edge
	entries []*Entry
}

// fail rejects the input: malformed JSON, or JSON that json.Unmarshal
// would not store into the ledger's types.
func (d *decoder) fail(msg string) error {
	return fmt.Errorf("ledger: %s at offset %d", msg, d.i)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	s, i := d.s, d.i
	for i < len(s) && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r') {
		i++
	}
	d.i = i
	if i < len(s) {
		return s[i]
	}
	return 0
}

// end checks that only whitespace remains.
func (d *decoder) end() error {
	if d.peek() != 0 || d.i < len(d.s) {
		return d.fail("unexpected data after top-level value")
	}
	return nil
}

// literal consumes lit if it is next.
func (d *decoder) literal(lit string) bool {
	if d.peek() == lit[0] && strings.HasPrefix(d.s[d.i:], lit) {
		d.i += len(lit)
		return true
	}
	return false
}

// null consumes a null literal if one is next. json.Unmarshal stores
// null as nil into pointers and slices and ignores it everywhere else,
// so every caller handles it before its value.
func (d *decoder) null() bool { return d.literal("null") }

func (d *decoder) enter() error {
	d.depth++
	if d.depth > maxDepth {
		return d.fail("exceeded max depth")
	}
	return nil
}

// object decodes an object, handing each member's value to field with
// its key folded by foldKey; field must consume the value.
func (d *decoder) object(field func(key string) error) error {
	if d.peek() != '{' {
		return d.fail("expected object")
	}
	d.i++
	if err := d.enter(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.i++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.fail("expected object key")
		}
		key, err := d.str(true)
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.fail("expected colon after object key")
		}
		d.i++
		if err := field(foldKey(key)); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			d.depth--
			return nil
		default:
			return d.fail("expected comma or end of object")
		}
	}
}

// foldKey maps an object key to the field name json.Unmarshal would
// match it to, exactly or else case-insensitively under Unicode simple
// folding. Every field name of the ledger's types is lowercase ASCII
// letters and underscores, so that match comes down to lowercasing
// ASCII letters and the two other runes that fold onto them: U+017F
// onto s and U+212A (Kelvin) onto k.
func foldKey(key string) string {
	for i := 0; i < len(key); i++ {
		if c := key[i]; c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' {
			b := make([]byte, 0, len(key))
			for _, r := range key {
				switch {
				case 'A' <= r && r <= 'Z':
					r += 'a' - 'A'
				case r == '\u017f':
					r = 's'
				case r == '\u212a':
					r = 'k'
				}
				b = utf8.AppendRune(b, r)
			}
			return string(b)
		}
	}
	return key
}

// array decodes an array, calling elem once per element.
func (d *decoder) array(elem func() error) error {
	if d.peek() != '[' {
		return d.fail("expected array")
	}
	d.i++
	if err := d.enter(); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.i++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			d.depth--
			return nil
		default:
			return d.fail("expected comma or end of array")
		}
	}
}

// decodeSlice decodes null or an array into s as json.Unmarshal does:
// elements decode in place over s's existing ones (which matters only
// for a repeated key), the slice grows as needed and is cut to the
// array's length, and an empty array gives an empty, non-nil slice.
// When s holds nothing the elements collect in *scratch first, so the
// result is allocated once at its final size.
func decodeSlice[T any](d *decoder, s []T, scratch *[]T, elem func(*T) error) ([]T, error) {
	if d.null() {
		return nil, nil
	}
	fresh := cap(s) == 0
	if fresh {
		s = (*scratch)[:0]
	}
	n := 0
	err := d.array(func() error {
		if n == len(s) {
			if !fresh && n < cap(s) {
				s = s[:n+1]
			} else {
				var zero T
				s = append(s, zero)
			}
		}
		n++
		return elem(&s[n-1])
	})
	switch {
	case err != nil:
		return nil, err
	case n == 0:
		return []T{}, nil
	case fresh:
		*scratch = s[:0]
		return append(make([]T, 0, n), s...), nil
	}
	return s[:n], nil
}

// decodePtr decodes null or an object into *p as json.Unmarshal does:
// null clears the pointer, an object decodes into the value already
// there or into a new one.
func decodePtr[T any](d *decoder, p **T, obj func(*T) error) error {
	if d.null() {
		*p = nil
		return nil
	}
	if *p == nil {
		*p = new(T)
	}
	return obj(*p)
}

// skip validates and discards one value of any kind.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func(string) error { return d.skip() })
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		_, err := d.str(false)
		return err
	case d.literal("true"), d.literal("false"), d.null():
		return nil
	}
	_, err := d.number()
	return err
}

// number consumes a number and returns its literal.
func (d *decoder) number() (string, error) {
	s, start := d.s, d.i
	i := start
	digits := func() bool {
		j := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if !digits() {
		return "", d.fail("expected value")
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			return "", d.fail("malformed number")
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return "", d.fail("malformed number")
		}
	}
	d.i = i
	return s[start:i], nil
}

func (d *decoder) string(p *string) error {
	if d.null() {
		return nil
	}
	if d.peek() != '"' {
		return d.fail("expected string")
	}
	s, err := d.str(true)
	if err != nil {
		return err
	}
	*p = s
	return nil
}

func (d *decoder) bool(p *bool) error {
	switch {
	case d.null():
	case d.literal("true"):
		*p = true
	case d.literal("false"):
		*p = false
	default:
		return d.fail("expected boolean")
	}
	return nil
}

// parseInt stores an integer literal that fits bits into *p; a
// fraction, an exponent or an overflow is a type error to json.Unmarshal.
func (d *decoder) parseInt(p *int64, bits int) error {
	if d.null() {
		return nil
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(lit, 10, bits)
	if err != nil {
		return d.fail("number " + lit + " is not an integer in range")
	}
	*p = n
	return nil
}

func (d *decoder) int64(p *int64) error { return d.parseInt(p, 64) }

func (d *decoder) int(p *int) error {
	n := int64(*p)
	if err := d.parseInt(&n, strconv.IntSize); err != nil {
		return err
	}
	*p = int(n)
	return nil
}

func (d *decoder) uint64(p *uint64) error {
	if d.null() {
		return nil
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseUint(lit, 10, 64)
	if err != nil {
		return d.fail("number " + lit + " is not an unsigned integer in range")
	}
	*p = n
	return nil
}

// str consumes a string at d.i. With keep unset it only validates.
// The value is decoded as json.Unmarshal decodes it: escapes resolved,
// and each invalid UTF-8 byte and unpaired surrogate escape replaced
// by U+FFFD. A string needing none of that is a substring of d.s.
func (d *decoder) str(keep bool) (string, error) {
	s := d.s
	start := d.i + 1
	i := start
	for i < len(s) {
		c := s[i]
		if plain[c] {
			i++
			continue
		}
		if c == '"' {
			d.i = i + 1
			return s[start:i], nil
		}
		if c < utf8.RuneSelf {
			break
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 {
			break
		}
		i += n
	}
	b := append(d.buf[:0], s[start:i]...)
	for i < len(s) {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			d.buf = b
			if !keep {
				return "", nil
			}
			return string(b), nil
		case c == '\\':
			d.i = i
			if i+1 >= len(s) {
				return "", d.fail("unterminated string")
			}
			i += 2
			switch c := s[i-1]; c {
			case '"', '\\', '/':
				b = append(b, c)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(s, i-2)
				if r < 0 {
					return "", d.fail("invalid \\u escape in string")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A valid pair is consumed whole; otherwise the
					// escape alone becomes U+FFFD and the next one is
					// read on its own.
					if dec := utf16.DecodeRune(r, hex4(s, i)); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				return "", d.fail("invalid escape in string")
			}
		case c < ' ':
			d.i = i
			return "", d.fail("control character in string")
		case c < utf8.RuneSelf:
			j := i + 1
			for j < len(s) && plain[s[j]] {
				j++
			}
			b = append(b, s[i:j]...)
			i = j
		default:
			r, n := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	d.buf = b
	d.i = i
	return "", d.fail("unterminated string")
}

// hex4 decodes the \uXXXX escape at s[i:], -1 if there is none.
func hex4(s string, i int) rune {
	if i+6 > len(s) || s[i] != '\\' || s[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range []byte(s[i+2 : i+6]) {
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

func (d *decoder) record(r *Record) error {
	if d.null() {
		return nil
	}
	return d.object(func(key string) error {
		var err error
		switch key {
		case "run_id":
			return d.string(&r.RunID)
		case "config":
			return d.config(&r.Config)
		case "cells":
			return d.int(&r.Cells)
		case "completed":
			return d.int(&r.Completed)
		case "digest":
			return d.string(&r.Digest)
		case "entries":
			r.Entries, err = decodeSlice(d, r.Entries, &d.entries, func(p **Entry) error {
				return decodePtr(d, p, d.entry)
			})
			return err
		}
		return d.skip()
	})
}

func (d *decoder) config(c *Config) error {
	if d.null() {
		return nil
	}
	return d.object(func(key string) error {
		var err error
		switch key {
		case "registry_digest":
			return d.string(&c.RegistryDigest)
		case "versions":
			c.Versions, err = decodeSlice(d, c.Versions, &d.strs, d.string)
			return err
		case "seed":
			return d.int64(&c.Seed)
		case "continue_on_error":
			return d.bool(&c.ContinueOnError)
		case "build_version":
			return d.string(&c.BuildVersion)
		}
		return d.skip()
	})
}

func (d *decoder) entry(e *Entry) error {
	if d.null() {
		return nil
	}
	return d.object(func(key string) error {
		var err error
		switch key {
		case "scenario":
			return d.string(&e.Scenario)
		case "version":
			return d.string(&e.Version)
		case "mode":
			return d.string(&e.Mode)
		case "seed":
			return d.int64(&e.Seed)
		case "spec_digest":
			return d.string(&e.SpecDigest)
		case "profiled":
			return d.bool(&e.Profiled)
		case "verdict":
			return decodePtr(d, &e.Verdict, d.verdict)
		case "equivalence":
			return decodePtr(d, &e.Equivalence, d.cellVerdict)
		case "coverage":
			return decodePtr(d, &e.Coverage, d.coverage)
		case "latency":
			return decodePtr(d, &e.Latency, d.latency)
		case "span_v":
			return d.uint64(&e.SpanV)
		case "effects":
			e.Effects, err = decodeSlice(d, e.Effects, &d.strs, d.string)
			return err
		case "state_audit":
			e.StateAudit, err = decodeSlice(d, e.StateAudit, &d.strs, d.string)
			return err
		case "error":
			return decodePtr(d, &e.Error, d.cellError)
		case "wall_ns":
			return d.int64(&e.WallNS)
		}
		return d.skip()
	})
}

func (d *decoder) verdict(v *VerdictRecord) error {
	return d.object(func(key string) error {
		switch key {
		case "erroneous_state":
			return d.bool(&v.ErroneousState)
		case "security_violation":
			return d.bool(&v.SecurityViolation)
		case "handled":
			return d.bool(&v.Handled)
		case "script_error":
			return d.string(&v.ScriptError)
		}
		return d.skip()
	})
}

func (d *decoder) cellVerdict(cv *tracediff.CellVerdict) error {
	return d.object(func(key string) error {
		switch key {
		case "use_case":
			return d.string(&cv.UseCase)
		case "version":
			return d.string(&cv.Version)
		case "tier":
			return d.string((*string)(&cv.Tier))
		case "basis":
			return d.string((*string)(&cv.Basis))
		case "ref_version":
			return d.string(&cv.RefVersion)
		case "base_events":
			return d.int(&cv.BaseEvents)
		case "injection_events":
			return d.int(&cv.InjectionEvents)
		case "divergence":
			return decodePtr(d, &cv.Divergence, d.divergence)
		}
		return d.skip()
	})
}

func (d *decoder) divergence(dv *tracediff.Divergence) error {
	return d.object(func(key string) error {
		switch key {
		case "index":
			return d.int(&dv.Index)
		case "a":
			return d.string(&dv.A)
		case "b":
			return d.string(&dv.B)
		case "a_line":
			return d.int(&dv.ALine)
		case "b_line":
			return d.int(&dv.BLine)
		}
		return d.skip()
	})
}

func (d *decoder) coverage(c *CoverageRecord) error {
	return d.object(func(key string) error {
		var err error
		switch key {
		case "digest":
			return d.string(&c.Digest)
		case "edges":
			return d.int(&c.Edges)
		case "edge_list":
			c.EdgeList, err = decodeSlice(d, c.EdgeList, &d.edges, d.edge)
			return err
		}
		return d.skip()
	})
}

// edge decodes one edge_list element; null leaves it as it is, the
// way json.Unmarshal treats null for a struct.
func (d *decoder) edge(ed *coverage.Edge) error {
	if d.null() {
		return nil
	}
	return d.object(func(key string) error {
		switch key {
		case "family":
			return d.string((*string)(&ed.Family))
		case "name":
			return d.string(&ed.Name)
		case "count":
			return d.uint64(&ed.Count)
		}
		return d.skip()
	})
}

func (d *decoder) latency(l *span.Latency) error {
	return d.object(func(key string) error {
		switch key {
		case "found":
			return d.bool(&l.Found)
		case "trigger_v":
			return d.uint64(&l.TriggerV)
		case "evidence_v":
			return d.uint64(&l.EvidenceV)
		case "events":
			return d.int64(&l.Events)
		}
		return d.skip()
	})
}

func (d *decoder) cellError(ce *campaign.CellError) error {
	return d.object(func(key string) error {
		switch key {
		case "cell":
			return d.string(&ce.Cell)
		case "class":
			return d.string((*string)(&ce.Class))
		case "message":
			return d.string(&ce.Message)
		case "stack":
			return d.string(&ce.Stack)
		}
		return d.skip()
	})
}

// decodeRecord decodes record.json bytes held in s. It is stricter than
// json.Unmarshal in one way: a null entry, which no record can hold, is
// rejected.
func decodeRecord(s string) (*Record, error) {
	d := decoder{s: s}
	var r Record
	if err := d.record(&r); err != nil {
		return nil, err
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	for _, e := range r.Entries {
		if e == nil {
			return nil, errors.New("ledger: record has a null entry")
		}
	}
	return &r, nil
}

// decodeEntry decodes one journal line into e, which must be zero; it
// accepts and rejects exactly the lines json.Unmarshal does.
func (d *decoder) decodeEntry(line string, e *Entry) error {
	d.s, d.i, d.depth = line, 0, 0
	if err := d.entry(e); err != nil {
		return err
	}
	return d.end()
}
