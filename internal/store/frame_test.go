package store

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/rel"
)

// TestTuplePayloadMatchesJSON pins the segment format across the switch to
// the wire row codec: a tuple's payload is byte for byte what json.Marshal
// wrote before (the nil tuple normalized to the empty one, as it always
// was), so pdms-seg1 files written either way replay unchanged, and a
// payload decodes exactly as json.Unmarshal decodes it.
func TestTuplePayloadMatchesJSON(t *testing.T) {
	corpus := []rel.Tuple{
		nil, {}, {""}, {"a", "b"}, {"NUL\x00byte", "<script>&amp;</script>"},
		{"line\u2028para\u2029", "bad\xffutf8\xc3"}, {"quote\"back\\slash", "tab\tnl\n\x01"},
		{"\u00e9\U0001f600", "\ufffd", "\xed\xa0\x80"},
	}
	for _, tup := range corpus {
		norm := tup
		if norm == nil {
			norm = rel.Tuple{}
		}
		want, err := json.Marshal([]string(norm))
		if err != nil {
			t.Fatal(err)
		}
		got := encodeTuple([]byte("keep"), tup)
		if !bytes.Equal(got, append([]byte("keep"), want...)) {
			t.Fatalf("encodeTuple(%q) = %q, want %q", tup, got[len("keep"):], want)
		}
		var wantVals []string
		if err := json.Unmarshal(want, &wantVals); err != nil {
			t.Fatal(err)
		}
		back, err := decodeTuple(want)
		if err != nil || !reflect.DeepEqual([]string(back), wantVals) {
			t.Fatalf("decodeTuple(%q) = %q, %v; json.Unmarshal gives %q", want, back, err, wantVals)
		}
	}
	if _, err := decodeTuple([]byte(`["a",1]`)); err == nil {
		t.Fatal("decodeTuple accepted a non-string value")
	}
}
