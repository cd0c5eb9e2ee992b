package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCleanTreePasses(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "# Title\n\n## Deep Dive\n\nSee [guide](docs/guide.md#setup-steps) and [self](#deep-dive).\n")
	write(t, dir, "docs/guide.md", "# Guide\n\n## Setup Steps\n\nBack to [readme](../README.md).\n")
	write(t, dir, "pkg/pkg.go", "// Package pkg does things.\npackage pkg\n")
	if problems := run(dir); len(problems) != 0 {
		t.Fatalf("clean tree reported problems: %v", problems)
	}
}

func TestBrokenLinkAndAnchorAndDoc(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "[gone](missing.md) and [bad](#no-such-heading)\n\n# Real Heading\n")
	write(t, dir, "pkg/pkg.go", "package pkg\n")
	problems := run(dir)
	joined := strings.Join(problems, "\n")
	for _, want := range []string{"broken link", "broken anchor", "no package comment"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q in problems:\n%s", want, joined)
		}
	}
	if len(problems) != 3 {
		t.Fatalf("want 3 problems, got %d:\n%s", len(problems), joined)
	}
}

func TestCodeBlocksAndExternalLinksIgnored(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "# T\n\n[ext](https://example.com/x) stays.\n\n```\n[fake](not-a-file.md)\n```\n")
	if problems := run(dir); len(problems) != 0 {
		t.Fatalf("problems: %v", problems)
	}
}

// TestIdentifierReferences: backticked pkg.Ident references in the design
// document resolve against the packages under internal/ and pdms/; other
// prefixes, lowercase (metric) names and other documents are left alone.
func TestIdentifierReferences(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "internal/eng/eng.go", `// Package eng evaluates.
package eng

type Engine struct{ Cap int }

func (e *Engine) Eval() {}

func New() *Engine { return nil }
`)
	write(t, dir, "README.md", "`eng.Gone` is not a design document's claim.\n")
	for _, tc := range []struct {
		ref  string
		want bool // resolves (or is not this check's business)
	}{
		{"`eng.Engine`", true},
		{"`eng.Engine.Eval`", true},
		{"`eng.Engine.Eval()`", true},
		{"`eng.Engine.Cap`", true},
		{"`eng.New`", true},
		{"`eng.Missing`", false},
		{"`eng.Engine.Missing`", false},
		{"`eng.Eval`", false}, // a method is not a package-level function
		{"`sync.Mutex`", true},
		{"`eng.scans`", true},
	} {
		write(t, dir, "ARCHITECTURE.md", "# A\n\nSee "+tc.ref+".\n")
		problems := run(dir)
		if tc.want && len(problems) != 0 {
			t.Errorf("%s: unexpected problems %v", tc.ref, problems)
		}
		if !tc.want && (len(problems) != 1 || !strings.Contains(problems[0], "names no declaration")) {
			t.Errorf("%s: want one unresolved-identifier problem, got %v", tc.ref, problems)
		}
	}
}

// TestFileNameReferences: a file named in a design document or in a Go
// comment must exist; patterns, history files and test files are left alone.
func TestFileNameReferences(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "BASELINE.json", "{}\n")
	write(t, dir, "internal/wire/limits.yml", "x: 1\n")
	write(t, dir, "internal/wire/wire.go", "// Package wire frames. See PROTOCOL.md and NOTES.md.\npackage wire\n")
	write(t, dir, "internal/wire/wire_test.go", "package wire\n\n// See VANISHED.md.\n")
	write(t, dir, "internal/NOTES.md", "# Notes\n")
	write(t, dir, "ROADMAP.md", "# R\n\n`RESULTS_9.json` was retired.\n")
	for _, tc := range []struct {
		doc, ref string
		want     bool // resolves (or is not this check's business)
	}{
		{"ARCHITECTURE.md", "`BASELINE.json`", true},                   // at the root
		{"internal/wire/PROTOCOL.md", "`limits.yml`", true},            // beside the document
		{"internal/wire/PROTOCOL.md", "`BASELINE.json`", true},         // at the root, from a nested document
		{"ARCHITECTURE.md", "`internal/wire/limits.yml`", true},        // a path from the root
		{"ARCHITECTURE.md", "`RESULTS_9.json`", false},                 // deleted
		{"ARCHITECTURE.md", "`limits.yml`", false},                     // exists, but not from here
		{"ARCHITECTURE.md", "`RESULTS_<n>.json` `out/*.json`", true},   // patterns
		{"ARCHITECTURE.md", "`out/{a,b}.sh` and RESULTS_9.json", true}, // pattern; not backticked
	} {
		// PROTOCOL.md must exist for wire.go's comment in every case.
		write(t, dir, "internal/wire/PROTOCOL.md", "# P\n")
		write(t, dir, "ARCHITECTURE.md", "# A\n")
		write(t, dir, tc.doc, "# D\n\nSee "+tc.ref+".\n")
		problems := run(dir)
		if tc.want && len(problems) != 0 {
			t.Errorf("%s in %s: unexpected problems %v", tc.ref, tc.doc, problems)
		}
		if !tc.want && (len(problems) != 1 || !strings.Contains(problems[0], "names no file")) {
			t.Errorf("%s in %s: want one missing-file problem, got %v", tc.ref, tc.doc, problems)
		}
	}

	// A Go comment's *.md name resolves beside the file, in a parent, or at
	// the root — and is reported when it resolves nowhere.
	if err := os.Remove(filepath.Join(dir, "internal", "NOTES.md")); err != nil {
		t.Fatal(err)
	}
	problems := run(dir)
	if len(problems) != 1 || !strings.Contains(problems[0], "wire.go") || !strings.Contains(problems[0], "NOTES.md") {
		t.Fatalf("want one problem naming wire.go and NOTES.md, got %v", problems)
	}
}

// TestRepoIsClean runs the linter over the actual repository: the docs CI
// job must stay green from inside the test suite too.
func TestRepoIsClean(t *testing.T) {
	root := "../.."
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skip("repo root not found")
	}
	if problems := run(root); len(problems) != 0 {
		t.Fatalf("repository docs lint fails:\n%s", strings.Join(problems, "\n"))
	}
}
