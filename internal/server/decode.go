package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"gsim"
)

// Request bodies are decoded by hand, not by encoding/json: the reflective
// decoder cost more than the search it fed. The decoder keeps the
// encoding/json contract for the three body types (FuzzWireDecode holds
// the two side by side):
//
//   - keys match fields exactly, else under Unicode case folding;
//   - an unknown key, malformed JSON or a value of the wrong type is an
//     error, and so is a number that does not fit its field (an int field
//     takes only integers strconv.ParseInt accepts);
//   - null leaves a string, number, bool or object field as it was and
//     sets a slice or pointer field to nil;
//   - a repeated key decodes again into the same field: objects merge,
//     arrays decode element by element into the existing slice.
//
// Unlike json.Decoder, which reads one value and ignores the rest, any
// non-whitespace byte after the request object is an error. Strings with
// escapes, or bytes that are not valid UTF-8, take encoding/json's own
// string rules for that one literal.

// wireBody is a request body type the decoder knows.
type wireBody interface {
	decodeWire(d *wireDecoder) error
}

// wireDecoder parses one request body held whole in memory.
type wireDecoder struct {
	buf  []byte            // pooled body buffer
	data []byte            // the body being decoded
	off  int               // next unread byte of data
	strs map[string]string // strings decoded so far, so a repeated label is copied once
}

// Decoders and their body buffers are pooled; a decoder that held a body
// over maxPooledBody, or more than maxPooledStrings distinct strings, is
// dropped instead, so one large ingest does not pin its buffer for good.
const (
	maxPooledBody    = 64 << 10
	maxPooledStrings = 1 << 10
)

var decoders = sync.Pool{New: func() any { return &wireDecoder{buf: make([]byte, 0, 4<<10)} }}

// decodeBody reads r's whole body, under the MaxBodyBytes cap instrument
// installs, and decodes it into v. A body over the cap returns the
// *http.MaxBytesError (bodyStatus maps it to 413); every other failure
// wraps gsim.ErrBadOptions (400).
func decodeBody(r *http.Request, v wireBody) error {
	d := decoders.Get().(*wireDecoder)
	defer d.release()
	var err error
	d.buf = d.buf[:0]
	if r.Body != nil {
		d.buf, err = readBody(d.buf, r.Body)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return err
		}
		return fmt.Errorf("%w: reading request body: %v", gsim.ErrBadOptions, err)
	}
	return d.decode(d.buf, v)
}

// readBody appends everything r yields to buf.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (d *wireDecoder) release() {
	if cap(d.buf) > maxPooledBody || len(d.strs) > maxPooledStrings {
		return
	}
	clear(d.strs)
	d.data = nil
	decoders.Put(d)
}

// decode parses data, one JSON object or null, into v. Every string it
// stores in v is a copy: data may be reused once it returns.
func (d *wireDecoder) decode(data []byte, v wireBody) error {
	d.data, d.off = data, 0
	if !d.null() {
		if err := v.decodeWire(d); err != nil {
			return err
		}
	}
	if d.ws(); d.off < len(d.data) {
		return d.errorf("trailing data after the request object")
	}
	return nil
}

// Field names per body type, in the order the decodeWire switches read
// them. The option fields come first wherever wireOptions is embedded.
var (
	searchKeys = []string{"method", "tau", "gamma", "k", "prefilter", "workers", "v1_sample", "v2_weight", "graph"}
	batchKeys  = []string{"method", "tau", "gamma", "k", "prefilter", "workers", "v1_sample", "v2_weight", "graphs"}
	ingestKeys = []string{"graphs"}
	graphKeys  = []string{"id", "name", "vertices", "edges"}
	edgeKeys   = []string{"u", "v", "label"}
)

// numOptionKeys is the number of wireOptions fields leading searchKeys
// and batchKeys.
const numOptionKeys = 8

func (req *searchRequest) decodeWire(d *wireDecoder) error {
	return d.object(func(key []byte) error {
		switch i := fieldIndex(key, searchKeys); {
		case i < 0:
			return d.unknown(key)
		case i < numOptionKeys:
			return d.option(&req.wireOptions, i)
		default:
			return d.graph(&req.Graph)
		}
	})
}

func (req *batchRequest) decodeWire(d *wireDecoder) error {
	return d.object(func(key []byte) error {
		switch i := fieldIndex(key, batchKeys); {
		case i < 0:
			return d.unknown(key)
		case i < numOptionKeys:
			return d.option(&req.wireOptions, i)
		default:
			return decodeArray(d, &req.Graphs, d.graph)
		}
	})
}

func (req *ingestGraphs) decodeWire(d *wireDecoder) error {
	return d.object(func(key []byte) error {
		if fieldIndex(key, ingestKeys) < 0 {
			return d.unknown(key)
		}
		return decodeArray(d, &req.Graphs, d.graph)
	})
}

// option decodes the value of wireOptions field i (an index into
// searchKeys).
func (d *wireDecoder) option(o *wireOptions, i int) error {
	switch i {
	case 0:
		return d.string(&o.Method)
	case 1:
		return d.int(&o.Tau)
	case 2:
		return d.float(&o.Gamma)
	case 3:
		return d.int(&o.K)
	case 4:
		return d.bool(&o.Prefilter)
	case 5:
		return d.int(&o.Workers)
	case 6:
		return d.int(&o.V1Sample)
	default:
		return d.float(&o.V2Weight)
	}
}

func (d *wireDecoder) graph(g *wireGraph) error {
	if d.null() {
		return nil
	}
	return d.object(func(key []byte) error {
		switch fieldIndex(key, graphKeys) {
		case 0:
			return d.intPtr(&g.ID)
		case 1:
			return d.string(&g.Name)
		case 2:
			return decodeArray(d, &g.Vertices, d.string)
		case 3:
			return decodeArray(d, &g.Edges, d.edge)
		default:
			return d.unknown(key)
		}
	})
}

func (d *wireDecoder) edge(e *wireEdge) error {
	if d.null() {
		return nil
	}
	return d.object(func(key []byte) error {
		switch fieldIndex(key, edgeKeys) {
		case 0:
			return d.int(&e.U)
		case 1:
			return d.int(&e.V)
		case 2:
			return d.string(&e.Label)
		default:
			return d.unknown(key)
		}
	})
}

// fieldIndex returns the index of the field key names, matched as
// encoding/json matches a key: exactly, else under Unicode case folding
// (the fold encoding/json uses is bytes.EqualFold's). -1: no such field.
func fieldIndex(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// object decodes one JSON object, handing each key to field, which must
// decode that key's value.
func (d *wireDecoder) object(field func(key []byte) error) error {
	if !d.consume('{') {
		return d.expected("an object")
	}
	if d.consume('}') {
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		if d.consume(',') {
			continue
		}
		if d.consume('}') {
			return nil
		}
		return d.expected("',' or '}'")
	}
}

// decodeArray decodes a JSON array into *s as encoding/json decodes into
// a slice: element i decodes in place into (*s)[i], so a repeated key
// reuses the elements its first occurrence left; the slice grows one
// element at a time and is cut to the decoded length; [] leaves an empty,
// non-nil slice and null a nil one.
func decodeArray[T any](d *wireDecoder, s *[]T, elem func(*T) error) error {
	if d.null() {
		*s = nil
		return nil
	}
	if !d.consume('[') {
		return d.expected("an array")
	}
	v, i := *s, 0
	if !d.consume(']') {
		for {
			if i >= cap(v) {
				v = slices.Grow(v, 1)
			}
			if i >= len(v) {
				v = v[:i+1]
			}
			if err := elem(&v[i]); err != nil {
				return err
			}
			i++
			if d.consume(',') {
				continue
			}
			if d.consume(']') {
				break
			}
			return d.expected("',' or ']'")
		}
	}
	if i == 0 {
		v = make([]T, 0)
	}
	*s = v[:i]
	return nil
}

// key decodes an object key and the colon after it.
func (d *wireDecoder) key() ([]byte, error) {
	d.ws()
	lit, slow, err := d.stringLit()
	if err != nil {
		return nil, err
	}
	key := lit[1 : len(lit)-1]
	if slow {
		s, err := d.unquote(lit)
		if err != nil {
			return nil, err
		}
		key = []byte(s)
	}
	if !d.consume(':') {
		return nil, d.expected("':' after object key")
	}
	return key, nil
}

// string decodes a string value into *dst; null leaves it unchanged.
// Equal strings of one request share one copy.
func (d *wireDecoder) string(dst *string) error {
	if d.null() {
		return nil
	}
	lit, slow, err := d.stringLit()
	if err != nil {
		return err
	}
	if slow {
		*dst, err = d.unquote(lit)
		return err
	}
	body := lit[1 : len(lit)-1]
	if s, ok := d.strs[string(body)]; ok {
		*dst = s
		return nil
	}
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	s := string(body)
	d.strs[s] = s
	*dst = s
	return nil
}

// stringLit scans the string literal at d.off and returns it, quotes
// included. slow reports an escape or invalid UTF-8, which unquote
// resolves by encoding/json's rules.
func (d *wireDecoder) stringLit() (lit []byte, slow bool, err error) {
	start := d.off
	if start >= len(d.data) || d.data[start] != '"' {
		return nil, false, d.expected("a string")
	}
	nonASCII := false
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			lit = d.data[start:d.off]
			return lit, slow || nonASCII && !utf8.Valid(lit), nil
		case c == '\\':
			slow = true
			i++
		case c < 0x20:
			d.off = i
			return nil, false, d.errorf("control character in string")
		case c >= utf8.RuneSelf:
			nonASCII = true
		}
	}
	d.off = len(d.data)
	return nil, false, d.errorf("unterminated string")
}

// unquote decodes one string literal by encoding/json's rules: escapes,
// surrogate pairs, and U+FFFD for invalid UTF-8.
func (d *wireDecoder) unquote(lit []byte) (string, error) {
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		return "", d.errorf("%v", err)
	}
	return s, nil
}

// int decodes an integer into *dst; null leaves it unchanged.
func (d *wireDecoder) int(dst *int) error {
	if d.null() {
		return nil
	}
	n, err := d.integer()
	if err != nil {
		return err
	}
	*dst = n
	return nil
}

// intPtr decodes an integer into **dst, allocating *dst if nil; null sets
// *dst to nil.
func (d *wireDecoder) intPtr(dst **int) error {
	if d.null() {
		*dst = nil
		return nil
	}
	n, err := d.integer()
	if err != nil {
		return err
	}
	if *dst == nil {
		*dst = new(int)
	}
	**dst = n
	return nil
}

func (d *wireDecoder) integer() (int, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return 0, d.errorf("%s is not an integer in range", lit)
	}
	return int(n), nil
}

// float decodes a number into *dst; null leaves it unchanged.
func (d *wireDecoder) float(dst *float64) error {
	if d.null() {
		return nil
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return d.errorf("%s is not a float64", lit)
	}
	*dst = f
	return nil
}

// bool decodes true or false into *dst; null leaves it unchanged.
func (d *wireDecoder) bool(dst *bool) error {
	switch {
	case d.null():
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return d.expected("true or false")
	}
	return nil
}

// number scans one number by the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns its bytes.
func (d *wireDecoder) number() ([]byte, error) {
	start, i := d.off, d.off
	digits := func() bool {
		j := i
		for i < len(d.data) && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	switch {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case !digits():
		return nil, d.expected("a number")
	}
	if i < len(d.data) && d.data[i] == '.' {
		i++
		if !digits() {
			d.off = i
			return nil, d.expected("a digit after the decimal point")
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			d.off = i
			return nil, d.expected("a digit in the exponent")
		}
	}
	d.off = i
	return d.data[start:i], nil
}

// ws skips JSON whitespace.
func (d *wireDecoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *wireDecoder) consume(c byte) bool {
	d.ws()
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// literal skips whitespace and then lit, reporting whether lit was there.
func (d *wireDecoder) literal(lit string) bool {
	d.ws()
	if rest := d.data[d.off:]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
		d.off += len(lit)
		return true
	}
	return false
}

func (d *wireDecoder) null() bool { return d.literal("null") }

func (d *wireDecoder) unknown(key []byte) error {
	return d.errorf("unknown field %q", key)
}

func (d *wireDecoder) expected(what string) error {
	if d.off >= len(d.data) {
		return d.errorf("unexpected end of body, expected %s", what)
	}
	return d.errorf("expected %s, found %q", what, d.data[d.off])
}

func (d *wireDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: decoding request body: offset %d: %s", gsim.ErrBadOptions, d.off, fmt.Sprintf(format, args...))
}
