package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// wireSelectors maps FuzzWire's endpoint selector (search, topk, batch,
// stream, graphs) to the body type that endpoint decodes, so
// FuzzWireDecode reads the FuzzWire corpus as it is.
var wireSelectors = []func(t *testing.T, body []byte){
	checkDecode[searchRequest],
	checkDecode[searchRequest],
	checkDecode[batchRequest],
	checkDecode[searchRequest],
	checkDecode[ingestGraphs],
}

// FuzzWireDecode holds the hand-written request decoder to encoding/json
// (json.Decoder with DisallowUnknownFields) on arbitrary bytes, for each
// of the three body types: both accept or both
// reject, and what both accept decodes to equal values. The one intended
// difference: json.Decoder reads the first value and ignores what follows
// it, while the request decoder rejects any non-whitespace after it.
func FuzzWireDecode(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzWire", "*"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no FuzzWire corpus: %v", err)
	}
	for _, path := range seeds {
		sel, body := readCorpusEntry(f, path)
		f.Add(sel, body)
	}
	const graph = `{"vertices":["C","N","O"],"edges":[{"u":0,"v":1,"label":"s"},{"u":1,"v":2,"label":"d"}]}`
	for _, body := range []string{
		`{"graph":` + graph + `,"tau":3}{"tau":99}`,
		`{"graph":` + graph + `}garbage`,
		`{"graph":` + graph + `}` + " \t\r\n",
		`null`, ` null `, `nullx`, ``, ` `, `{}`, `[]`, `3`, `"x"`, `{"tau":3,}`, `{"tau" 3}`,
		`{"TAU":3,"Graph":{"VERTICES":["a"]},"PreFilter":true}`,
		"{\"K\":4,\"v1_ſample\":2}", // Kelvin sign folds to k, long s to s
		`{"tau":3,"graph":{"vertices":["é","a\"b","\ud800","\n"]}}`,
		"{\"graph\":{\"vertices\":[\"\xff\",\"é\"]}}",
		"{\"graph\":{\"vertices\":[\"a\x01\"]}}",
		`{"graph":{"vertices":["a","b"],"vertices":["c"]}}`,
		`{"graph":{"edges":[{"u":1,"v":2},{"u":3}],"edges":[{"label":"x"}],"edges":[null,null]}}`,
		`{"graph":{"name":"g"},"graph":{"vertices":["a"]},"graph":null}`,
		`{"graph":{"id":3,"id":null,"vertices":null,"edges":[]}}`,
		`{"tau":3.0}`, `{"tau":1e2}`, `{"tau":-0}`, `{"tau":9223372036854775808}`, `{"tau":-9223372036854775808}`,
		`{"gamma":1e400}`, `{"gamma":1e-400}`, `{"gamma":-0.5e-3}`, `{"gamma":01}`, `{"gamma":.5}`, `{"gamma":1.}`, `{"gamma":-}`,
		`{"tau":"3"}`, `{"tau":null}`, `{"method":3}`, `{"prefilter":1}`, `{"prefilter":tru}`, `{"prefilter":null}`,
		`{"graph":[]}`, `{"graphs":{}}`, `{"wireOptions":{}}`, `{"graph":{"vertices":[1]}}`,
	} {
		for sel := byte(0); sel < 5; sel++ {
			f.Add(sel, []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, sel byte, body []byte) {
		wireSelectors[int(sel)%len(wireSelectors)](t, body)
	})
}

// checkDecode compares the request decoder with encoding/json on one body
// decoded as a T.
func checkDecode[T any, PT interface {
	*T
	wireBody
}](t *testing.T, body []byte) {
	t.Helper()
	var want, got T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	werr := dec.Decode(&want)
	trailing := werr == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
	gerr := new(wireDecoder).decode(body, PT(&got))
	switch {
	case werr != nil && gerr == nil:
		t.Fatalf("%T: accepted %q, which encoding/json rejects: %v", got, body, werr)
	case trailing && gerr == nil:
		t.Fatalf("%T: accepted trailing bytes in %q", got, body)
	case werr == nil && !trailing && gerr != nil:
		t.Fatalf("%T: rejected %q, which encoding/json accepts: %v", got, body, gerr)
	case gerr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%T: %q decoded to\n%#v\nencoding/json:\n%#v", got, body, got, want)
	}
}

// readCorpusEntry reads one "go test fuzz v1" file holding a byte and a
// []byte.
func readCorpusEntry(f *testing.F, path string) (byte, []byte) {
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		f.Fatalf("%s: %d lines, want 3", path, len(lines))
	}
	sel, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "byte("), ")"))
	body, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
	if err1 != nil || err2 != nil || len(sel) != 1 {
		f.Fatalf("%s: unreadable entry (%v, %v)", path, err1, err2)
	}
	return sel[0], []byte(body)
}
