package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lang"
	"repro/internal/rel"
)

// sameCQ reports whether two queries are equal field for field: the same
// atoms, terms and comparisons, byte for byte.
func sameCQ(a, b *lang.CQ) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !a.Head.Equal(b.Head) || len(a.Body) != len(b.Body) || len(a.Comps) != len(b.Comps) {
		return false
	}
	for i := range a.Body {
		if !a.Body[i].Equal(b.Body[i]) {
			return false
		}
	}
	for i := range a.Comps {
		if a.Comps[i] != b.Comps[i] {
			return false
		}
	}
	return true
}

// sameAtom is sameCQ for atoms.
func sameAtom(a, b *lang.Atom) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Equal(*b)
}

// evalOf is the eval request of q, read back through its frame.
func evalOf(t testing.TB, q lang.CQ) *lang.CQ {
	t.Helper()
	back, err := readRequest(AppendRequest(nil, &Request{Op: "eval", V: Version, Query: &q}), DefaultMaxFrame)
	if err != nil || back.Query == nil {
		t.Fatalf("eval of %s read back as %+v (%v)", q, back, err)
	}
	return back.Query
}

// TestTermRoundTrip sends terms as a bind atom's values: each comes back
// the same kind with the same bytes, and a value that is empty or starts
// with another byte than "?" or "=" is a bad request.
func TestTermRoundTrip(t *testing.T) {
	terms := []lang.Term{lang.Var("x"), lang.Const("5"), lang.Const("a b"), lang.Const("\xff\xfe"), lang.Var(""), lang.Const(""),
		lang.Const("?x"), lang.Var("=y"), lang.Const("line\nbreak")}
	a := lang.NewAtom("P.r", terms...)
	back, err := readRequest(AppendRequest(nil, &Request{Op: "bind", V: Version, Atom: &a}), DefaultMaxFrame)
	if err != nil || !sameAtom(back.Atom, &a) {
		t.Fatalf("round trip %v -> %+v (%v)", a, back.Atom, err)
	}
	for _, bad := range []string{"", "x", "var", "\x00=a", "!x", strings.Repeat("x", 1<<20)} {
		_, err := readRequest(rawRequest("bind", 0, [][]string{{"P.r", bad}}), DefaultMaxFrame)
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("term value %.20q: %v, want a bad request", bad, err)
		}
		// A server echoes the error in its answer: it quotes no more
		// than the value's first bytes.
		if len(err.Error()) > 100 {
			t.Fatalf("term value of %d bytes: error of %d bytes", len(bad), len(err.Error()))
		}
	}
}

// TestCQRoundTripJSON sends a query as an eval request's rows: it comes
// back equal field for field.
func TestCQRoundTripJSON(t *testing.T) {
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Const("tag")),
		Body: []lang.Atom{
			lang.NewAtom("A.r", lang.Var("x"), lang.Var("y")),
			lang.NewAtom("B.s", lang.Var("y"), lang.Const("\xff\xfe")),
		},
		Comps: []lang.Comparison{{Op: lang.OpLE, L: lang.Var("y"), R: lang.Const("9")}},
	}
	if got := evalOf(t, q); !sameCQ(got, &q) {
		t.Fatalf("round trip: %s != %s", got, q)
	}
}

// TestComparisonOps sends each operator in a comparison row; an operator
// lang does not spell, and a comparison row without three values, are bad
// requests.
func TestComparisonOps(t *testing.T) {
	for _, op := range []lang.CompOp{lang.OpEQ, lang.OpNE, lang.OpLT, lang.OpLE, lang.OpGT, lang.OpGE} {
		c := lang.Comparison{Op: op, L: lang.Var("a"), R: lang.Const("b")}
		q := lang.CQ{Head: lang.NewAtom("q", lang.Var("a")), Body: []lang.Atom{lang.NewAtom("A.r", lang.Var("a"))}, Comps: []lang.Comparison{c}}
		if got := evalOf(t, q); len(got.Comps) != 1 || got.Comps[0] != c {
			t.Fatalf("op %v: %v", op, got.Comps)
		}
	}
	for _, comp := range [][]string{{"~~", "?a", "=b"}, {"==", "?a", "=b"}, {"<", "?a"}, {"<", "?a", "=b", "=c"}, {}} {
		frame := rawRequest("eval", 0, [][]string{{"q", "?a"}, comp})
		if _, err := readRequest(frame, DefaultMaxFrame); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("comparison row %q: %v, want a bad request", comp, err)
		}
	}
}

func TestTupleHelpers(t *testing.T) {
	ts := []rel.Tuple{{"a", "b"}, {"c"}}
	rows := TuplesToRows(ts)
	if len(rows) != 2 || !ts[0].Equal(rows[0]) || !ts[1].Equal(rows[1]) {
		t.Fatalf("TuplesToRows: %v", rows)
	}
}

// A bind request — atom plus bound-key batch — survives the round trip
// through its envelope and row block with every field intact.
func TestBindRequestRoundTripJSON(t *testing.T) {
	a := lang.NewAtom("P.r", lang.Const("\xff\xfe"), lang.Var("x"), lang.Var("y"))
	req := Request{
		Op:       "bind",
		V:        Version,
		Atom:     &a,
		BindCols: []int{1, 2},
		Rows:     [][]string{{"v1", "w1"}, {"v|2", "w=3"}, {"\xff\xfe", "\n"}},
	}
	back, err := readRequest(AppendRequest(nil, &req), DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if back.Op != "bind" || back.V != Version || !sameAtom(back.Atom, &a) {
		t.Fatalf("round trip: %+v, atom %v", back, back.Atom)
	}
	if len(back.BindCols) != 2 || back.BindCols[0] != 1 || back.BindCols[1] != 2 {
		t.Fatalf("bindCols: %v", back.BindCols)
	}
	if !reflect.DeepEqual(back.Rows, req.Rows) {
		t.Fatalf("rows: %q, want %q", back.Rows, req.Rows)
	}
}

// Catalog responses carry cardinalities parallel to the predicate list.
func TestCatalogCardsRoundTripJSON(t *testing.T) {
	resp := Response{Preds: []string{"A.r", "B.s"}, Cards: []int{10, 3}}
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var back Response
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Preds) != 2 || len(back.Cards) != 2 || back.Cards[0] != 10 || back.Cards[1] != 3 {
		t.Fatalf("round trip: %+v", back)
	}
}

// A chunked response stream — non-final frames with More set, a final
// frame with piggybacked cardinalities — reads back frame by frame through
// one reader and one reused buffer, with row blocks holding newlines (a
// value, and a length of 10) that must not end a frame.
func TestChunkedResponseRoundTrip(t *testing.T) {
	frames := []Response{
		{Rows: [][]string{{"a", "1"}, {"b\n", "2"}}, More: true},
		{Rows: [][]string{{"c", strings.Repeat("x", '\n')}}, Preds: []string{"P.r"}, Cards: []int{3}},
	}
	var stream []byte
	for i := range frames {
		stream = append(stream, frameOf(&frames[i])...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range frames {
		var got Response
		var err error
		buf, err = ReadResponse(br, buf, DefaultMaxFrame, &got)
		if err != nil {
			t.Fatal(err)
		}
		if got.More != want.More || !sameRows(got.Rows, want.Rows) || !reflect.DeepEqual(got.Cards, want.Cards) {
			t.Fatalf("frame %d: %+v, want %+v", i, got, want)
		}
	}
	var r Response
	if _, err := ReadResponse(br, buf, DefaultMaxFrame, &r); err != io.EOF {
		t.Fatalf("trailing read err = %v, want io.EOF", err)
	}
}

// ReadFrame must consume an oversized line through its newline — keeping
// the stream framed — and then hand back the frames that follow intact.
func TestReadFrameOversizePreservesFraming(t *testing.T) {
	big := strings.Repeat("x", 5000)
	input := big + "\nok\n"
	br := bufio.NewReaderSize(strings.NewReader(input), 64)
	if _, err := ReadFrame(br, 1024); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	line, err := ReadFrame(br, 1024)
	if err != nil || string(line) != "ok" {
		t.Fatalf("next frame = %q err = %v", line, err)
	}
	if _, err := ReadFrame(br, 1024); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

// Frames larger than the bufio buffer but under the limit reassemble, and
// a partial trailing line is an unexpected EOF, not a silent drop.
func TestReadFrameSpansBufferAndPartialTail(t *testing.T) {
	long := strings.Repeat("y", 300)
	br := bufio.NewReaderSize(strings.NewReader(long+"\npartial"), 64)
	line, err := ReadFrame(br, 1024)
	if err != nil || string(line) != long {
		t.Fatalf("long frame: len=%d err=%v", len(line), err)
	}
	if _, err := ReadFrame(br, 1024); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("partial tail err = %v, want ErrUnexpectedEOF", err)
	}
}

// Property: random CQs, constants of arbitrary bytes included, survive
// the eval request's round trip equal field for field.
func TestCQRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomCQ(rng)
		back, err := readRequest(AppendRequest(nil, &Request{Op: "eval", V: Version, Query: &q}), DefaultMaxFrame)
		return err == nil && sameCQ(back.Query, &q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randomCQ(rng *rand.Rand) lang.CQ {
	vars := []lang.Term{lang.Var("a"), lang.Var("b"), lang.Var("c")}
	randT := func() lang.Term {
		if rng.Intn(3) == 0 {
			v := make([]byte, rng.Intn(4))
			rng.Read(v)
			return lang.Const(string(v))
		}
		return vars[rng.Intn(len(vars))]
	}
	q := lang.CQ{Head: lang.NewAtom("q", vars[0])}
	for i := 0; i < 1+rng.Intn(3); i++ {
		q.Body = append(q.Body, lang.NewAtom("P.r", randT(), randT()))
	}
	if rng.Intn(2) == 0 {
		q.Comps = append(q.Comps, lang.Comparison{
			Op: lang.CompOp(rng.Intn(6)), L: randT(), R: randT(),
		})
	}
	return q
}

// TestVersionPinnedInDocs fails unless the protocol documents name
// wire.Version: PROTOCOL.md's Version bullet and every "v": followed by a
// number in PROTOCOL.md and ARCHITECTURE.md.
func TestVersionPinnedInDocs(t *testing.T) {
	vs := regexp.MustCompile(`"v":\s*([0-9]+)`)
	for _, doc := range []string{"PROTOCOL.md", "../../ARCHITECTURE.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		found := vs.FindAllSubmatch(text, -1)
		if doc == "PROTOCOL.md" {
			bullet := regexp.MustCompile(`\*\*Version\*\*:\s*([0-9]+)`).FindAllSubmatch(text, -1)
			if len(bullet) != 1 {
				t.Fatalf("PROTOCOL.md has %d Version bullets, want 1", len(bullet))
			}
			found = append(found, bullet...)
		}
		if len(found) == 0 {
			t.Fatalf("%s names no protocol version", doc)
		}
		for _, m := range found {
			if string(m[1]) != strconv.Itoa(Version) {
				t.Fatalf("%s: %q, want version %d", doc, m[0], Version)
			}
		}
	}
}
