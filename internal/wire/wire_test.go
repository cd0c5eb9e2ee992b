package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lang"
	"repro/internal/rel"
)

func TestTermRoundTrip(t *testing.T) {
	for _, lt := range []lang.Term{lang.Var("x"), lang.Const("5"), lang.Const("a b")} {
		got, err := FromTerm(lt).ToTerm()
		if err != nil || got != lt {
			t.Fatalf("round trip %v -> %v (%v)", lt, got, err)
		}
	}
	if _, err := (Term{Kind: "bogus"}).ToTerm(); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestCQRoundTripJSON(t *testing.T) {
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Const("tag")),
		Body: []lang.Atom{
			lang.NewAtom("A.r", lang.Var("x"), lang.Var("y")),
			lang.NewAtom("B.s", lang.Var("y"), lang.Const("1")),
		},
		Comps: []lang.Comparison{{Op: lang.OpLE, L: lang.Var("y"), R: lang.Const("9")}},
	}
	data, err := json.Marshal(FromCQ(q))
	if err != nil {
		t.Fatal(err)
	}
	var wq CQ
	if err := json.Unmarshal(data, &wq); err != nil {
		t.Fatal(err)
	}
	got, err := wq.ToCQ()
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != q.String() {
		t.Fatalf("round trip: %s != %s", got, q)
	}
}

func TestComparisonOps(t *testing.T) {
	for _, op := range []lang.CompOp{lang.OpEQ, lang.OpNE, lang.OpLT, lang.OpLE, lang.OpGT, lang.OpGE} {
		c := lang.Comparison{Op: op, L: lang.Var("a"), R: lang.Const("b")}
		got, err := FromComparison(c).ToComparison()
		if err != nil || got != c {
			t.Fatalf("op %v: %v (%v)", op, got, err)
		}
	}
	if _, err := (Comparison{Op: "~~"}).ToComparison(); err == nil {
		t.Fatal("bad op accepted")
	}
}

func TestTupleHelpers(t *testing.T) {
	ts := []rel.Tuple{{"a", "b"}, {"c"}}
	rows := TuplesToRows(ts)
	if len(rows) != 2 || !ts[0].Equal(rows[0]) || !ts[1].Equal(rows[1]) {
		t.Fatalf("TuplesToRows: %v", rows)
	}
}

// A bind request — atom plus bound-key batch — survives the JSON round
// trip with every field intact.
func TestBindRequestRoundTripJSON(t *testing.T) {
	a := FromAtom(lang.NewAtom("P.r", lang.Const("k"), lang.Var("x"), lang.Var("y")))
	req := Request{
		Op:       "bind",
		Atom:     &a,
		BindCols: []int{1, 2},
		BindRows: [][]string{{"v1", "w1"}, {"v|2", "w=3"}},
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Op != "bind" || back.Atom == nil {
		t.Fatalf("round trip: %+v", back)
	}
	la, err := back.Atom.ToAtom()
	if err != nil || la.Pred != "P.r" || la.Arity() != 3 {
		t.Fatalf("atom: %v (%v)", la, err)
	}
	if len(back.BindCols) != 2 || back.BindCols[0] != 1 || back.BindCols[1] != 2 {
		t.Fatalf("bindCols: %v", back.BindCols)
	}
	if len(back.BindRows) != 2 || back.BindRows[1][0] != "v|2" || back.BindRows[1][1] != "w=3" {
		t.Fatalf("bindRows: %v", back.BindRows)
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
// frame with piggybacked cardinalities — survives the JSON round trip.
func TestChunkedResponseRoundTripJSON(t *testing.T) {
	frames := []Response{
		{Rows: [][]string{{"a", "1"}, {"b", "2"}}, More: true},
		{Rows: [][]string{{"c", "3"}}, Preds: []string{"P.r"}, Cards: []int{3}},
	}
	var stream []byte
	for _, f := range frames {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, data...)
		stream = append(stream, '\n')
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	for i, want := range frames {
		line, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		var got Response
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if got.More != want.More || len(got.Rows) != len(want.Rows) {
			t.Fatalf("frame %d: %+v", i, got)
		}
	}
	if len(frames[0].Cards) != 0 || frames[1].Cards[0] != 3 {
		t.Fatalf("cards: %+v", frames)
	}
	if _, err := ReadFrame(br, DefaultMaxFrame); err != io.EOF {
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

// Property: random CQs survive the JSON round trip textually intact.
func TestCQRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomCQ(rng)
		data, err := json.Marshal(FromCQ(q))
		if err != nil {
			return false
		}
		var wq CQ
		if err := json.Unmarshal(data, &wq); err != nil {
			return false
		}
		got, err := wq.ToCQ()
		return err == nil && got.String() == q.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randomCQ(rng *rand.Rand) lang.CQ {
	vars := []lang.Term{lang.Var("a"), lang.Var("b"), lang.Var("c")}
	randT := func() lang.Term {
		if rng.Intn(3) == 0 {
			return lang.Const(string(rune('0' + rng.Intn(5))))
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
