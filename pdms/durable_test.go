package pdms

import (
	"os"
	"strings"
	"testing"
)

const durableSpec = `
storage FH.doc(s, l) in FH:Doctor(s, l)
define H:Doctor(s, l) :- FH:Doctor(s, l)
fact FH.doc("d1", "er")
fact FH.doc("d2", "icu")
`

// TestDurableRoundTrip: facts added to a DataDir-backed network survive a
// close/reopen, spec facts merge idempotently over the recovered data, and
// queries over the recovered instance answer identically.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir}
	n, err := LoadWithOptions(durableSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddFact("FH.doc", "d3", "ward"); err != nil {
		t.Fatal(err)
	}
	want, err := n.Query(`q(s) :- H:Doctor(s, l)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 {
		t.Fatalf("want 3 doctors, got %v", want)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// Reload the same spec over the same directory: the recovered d3 and
	// the spec's (duplicate) d1/d2 must coexist without double-counting.
	n2, err := LoadWithOptions(durableSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	got, err := n2.Query(`q(s) :- H:Doctor(s, l)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered network answers %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("recovered network answers %v, want %v", got, want)
		}
	}
	if n2.Data().Relation("FH.doc").Len() != 3 {
		t.Fatalf("recovered relation has %d tuples, want 3", n2.Data().Relation("FH.doc").Len())
	}
}

// TestOpenRecoversFactsWithoutSpec: Open replays the journal into an
// empty-spec network; re-extending the spec makes the data queryable again.
func TestOpenRecoversFactsWithoutSpec(t *testing.T) {
	dir := t.TempDir()
	n, err := LoadWithOptions(durableSpec, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n2, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if n2.Data().Relation("FH.doc") == nil || n2.Data().Relation("FH.doc").Len() != 2 {
		t.Fatalf("Open did not recover the journaled facts: %v", n2.Data())
	}
	// The spec is not persisted: declare it again, then query.
	if err := n2.Extend("storage FH.doc(s, l) in FH:Doctor(s, l)\ndefine H:Doctor(s, l) :- FH:Doctor(s, l)"); err != nil {
		t.Fatal(err)
	}
	ans, err := n2.Query(`q(s) :- H:Doctor(s, l)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("recovered answers = %v", ans)
	}
}

// TestNewPanicsOnDataDir pins the documented misuse guard.
func TestNewPanicsOnDataDir(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("New accepted a DataDir")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "Open") {
			t.Fatalf("panic message does not point at Open: %v", r)
		}
	}()
	New(Options{DataDir: t.TempDir()})
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestLoadFailureClosesJournal: a load that fails while merging the spec's
// facts over the recovered data must close the journal it opened — the
// segment files its earlier facts created — and leave the directory loadable.
func TestLoadFailureClosesJournal(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir}
	n, err := LoadWithOptions(`fact R("a", "b")`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	before := openFDs(t)
	// Facts merge in relation-name order: A.new journals first (opening a
	// segment), then R's arity disagrees with the recovered R/2.
	if _, err := LoadWithOptions("fact A.new(\"x\")\nfact R(\"only\")", opts); err == nil {
		t.Fatal("load with an arity-mismatched fact succeeded")
	}
	if after := openFDs(t); after != before {
		t.Fatalf("failed load left %d file descriptors open", after-before)
	}

	n2, err := LoadWithOptions(`fact R("c", "d")`, opts)
	if err != nil {
		t.Fatalf("load after a failed load: %v", err)
	}
	if got := n2.Data().Relation("R").Len(); got != 2 {
		t.Fatalf("R has %d tuples after reload, want 2", got)
	}
	if err := n2.Close(); err != nil {
		t.Fatalf("close after a failed load: %v", err)
	}
}
