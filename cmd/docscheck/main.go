// Command docscheck is the repository's documentation linter, run by the
// CI docs job. It enforces five invariants over the whole tree:
//
//   - Every relative link in every Markdown file resolves to an existing
//     file or directory.
//   - Every #anchor in a Markdown link (in-file or cross-file) matches a
//     heading in the target document, using GitHub's anchor derivation
//     (lowercase, punctuation stripped, spaces to hyphens).
//   - Every Go package has a package comment (the lightweight equivalent
//     of revive's exported-documentation rule for this repository).
//   - In the living design documents (identDocs — not the history files
//     ROADMAP, CHANGES, ISSUE), every backticked `pkg.Ident` or
//     `pkg.Type.Member` whose pkg is a package under internal/ or pdms/
//     names a declaration that exists, so a rename or a deletion cannot
//     leave the documents describing code that is gone.
//   - A file named in those documents (a backticked name ending in .md,
//     .json, .ppl, .yml or .sh) or in a non-test Go comment (a *.md name)
//     exists, so a deleted file cannot stay documented.
//
// Usage: docscheck [root]   (root defaults to the current directory)
//
// It prints one line per problem and exits nonzero if any were found, so
// broken cross-references in ARCHITECTURE.md, internal/wire/PROTOCOL.md and
// the package docs fail the build instead of rotting silently.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	problems := run(root)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// run lints the tree rooted at root and returns one message per problem.
func run(root string) []string {
	var problems []string
	mds, gos, err := collect(root)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: walking %s: %v", root, err)}
	}
	for _, md := range mds {
		problems = append(problems, checkMarkdown(root, md)...)
	}
	problems = append(problems, checkIdentifiers(root, gos)...)
	problems = append(problems, checkFileNames(root, gos)...)
	problems = append(problems, checkPackageComments(gos)...)
	return problems
}

// collect gathers the Markdown files and the directories containing Go
// files under root, skipping VCS metadata and test fixtures.
func collect(root string) (mds []string, goDirs []string, err error) {
	seenGoDir := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "testdata" || name == "node_modules" {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(name, ".md"):
			mds = append(mds, path)
		case strings.HasSuffix(name, ".go"):
			dir := filepath.Dir(path)
			if !seenGoDir[dir] {
				seenGoDir[dir] = true
				goDirs = append(goDirs, dir)
			}
		}
		return nil
	})
	return mds, goDirs, err
}

// linkRe matches inline Markdown links [text](target). Images and
// reference-style links are out of scope for this repository.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdown verifies every relative link (and anchor) in one file.
func checkMarkdown(root, path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	var problems []string
	for _, m := range linkRe.FindAllStringSubmatch(stripCodeBlocks(string(data)), -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue // external; availability is not this linter's business
		}
		file, anchor, _ := strings.Cut(target, "#")
		resolved := path
		if file != "" {
			resolved = filepath.Join(filepath.Dir(path), file)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q (%s does not exist)", path, target, resolved))
				continue
			}
		}
		if anchor == "" {
			continue
		}
		if !strings.HasSuffix(resolved, ".md") {
			continue // anchors into non-Markdown files (e.g. code) are not checked
		}
		ok, err := hasAnchor(resolved, anchor)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path, err))
		} else if !ok {
			problems = append(problems, fmt.Sprintf("%s: broken anchor %q (no matching heading in %s)", path, target, resolved))
		}
	}
	return problems
}

// stripCodeBlocks removes fenced code blocks so example links inside them
// are not linted.
func stripCodeBlocks(s string) string {
	var out []string
	in := false
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			in = !in
			continue
		}
		if !in {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// hasAnchor reports whether the Markdown file declares a heading whose
// GitHub-style anchor equals anchor.
func hasAnchor(path, anchor string) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	for _, line := range strings.Split(stripCodeBlocks(string(data)), "\n") {
		t := strings.TrimSpace(line)
		if !strings.HasPrefix(t, "#") {
			continue
		}
		heading := strings.TrimLeft(t, "#")
		if len(heading) == len(t) || heading == "" || heading[0] != ' ' {
			continue
		}
		if githubAnchor(strings.TrimSpace(heading)) == strings.ToLower(anchor) {
			return true, nil
		}
	}
	return false, nil
}

// githubAnchor derives the anchor id GitHub assigns a heading: lowercase,
// spaces and runs of hyphens/spaces to single context, punctuation dropped.
func githubAnchor(heading string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_':
			sb.WriteRune(r)
		case r == ' ':
			sb.WriteByte('-')
		}
	}
	return sb.String()
}

// checkPackageComments parses every Go package directory and reports those
// where no file carries a package doc comment.
func checkPackageComments(dirs []string) []string {
	var problems []string
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
			continue
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, name))
			}
		}
	}
	return problems
}

// identDocs are the documents, relative to the root, whose backticked Go
// identifiers must resolve.
var identDocs = []string{"ARCHITECTURE.md", filepath.Join("internal", "wire", "PROTOCOL.md")}

// identRe matches a backticked exported reference: `pkg.Ident`,
// `pkg.Type.Member`, either with an optional trailing "()". Lowercase second
// components (metric names such as `engine.scans`, file names) do not match.
var identRe = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z]\\w*(?:\\.\\w+)?)(?:\\(\\))?`")

// checkIdentifiers resolves the identRe references of identDocs against
// the declarations of the packages under root/internal and root/pdms
// (matched by directory name); other package prefixes are left alone.
func checkIdentifiers(root string, goDirs []string) []string {
	pkgDir := map[string]string{}
	for _, dir := range goDirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			continue
		}
		if top, _, _ := strings.Cut(filepath.ToSlash(rel), "/"); top == "internal" || top == "pdms" {
			pkgDir[filepath.Base(dir)] = dir
		}
	}
	decls := map[string]map[string]bool{} // package -> declared "Ident" and "Type.Member"
	var problems []string
	for _, doc := range identDocs {
		path := filepath.Join(root, doc)
		data, err := os.ReadFile(path)
		if err != nil {
			continue // a tree without the document has nothing to resolve
		}
		for _, m := range identRe.FindAllStringSubmatch(stripCodeBlocks(string(data)), -1) {
			pkg, ident := m[1], m[2]
			dir, ok := pkgDir[pkg]
			if !ok {
				continue
			}
			if decls[pkg] == nil {
				d, err := declarations(dir)
				if err != nil {
					problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
				}
				decls[pkg] = d
			}
			if !decls[pkg][ident] {
				problems = append(problems, fmt.Sprintf("%s: `%s.%s` names no declaration in %s", path, pkg, ident, dir))
			}
		}
	}
	return problems
}

// docFileRe matches a backticked file name in a design document; goFileRe a
// Markdown file name in a Go comment.
var (
	docFileRe = regexp.MustCompile("`([^`\\s]+\\.(?:md|json|ppl|yml|sh))`")
	goFileRe  = regexp.MustCompile(`[\w./-]*\w\.md\b`)
)

// resolves reports whether name exists relative to any of dirs.
func resolves(name string, dirs ...string) bool {
	for _, dir := range dirs {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// checkFileNames reports file names that resolve to nothing: in identDocs,
// backticked names (relative to the root or the document's directory; names
// with the placeholder characters <, * or { are patterns, not files); in
// non-test Go comments, *.md names (relative to the root, the file's
// directory or a parent of it).
func checkFileNames(root string, goDirs []string) []string {
	var problems []string
	for _, doc := range identDocs {
		path := filepath.Join(root, doc)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		for _, m := range docFileRe.FindAllStringSubmatch(stripCodeBlocks(string(data)), -1) {
			if name := m[1]; !strings.ContainsAny(name, "<*{") && !resolves(name, root, filepath.Dir(path)) {
				problems = append(problems, fmt.Sprintf("%s: `%s` names no file", path, name))
			}
		}
	}
	for _, dir := range goDirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			continue // checkPackageComments reports unparsable directories
		}
		upToRoot := []string{dir}
		for d := dir; d != root && d != filepath.Dir(d); {
			d = filepath.Dir(d)
			upToRoot = append(upToRoot, d)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, cg := range f.Comments {
					for _, name := range goFileRe.FindAllString(cg.Text(), -1) {
						if !resolves(name, upToRoot...) {
							problems = append(problems, fmt.Sprintf("%s: comment names %s, which does not exist", fset.Position(cg.Pos()), name))
						}
					}
				}
			}
		}
	}
	return problems
}

// declarations lists what the non-test files of the package in dir declare
// at top level: functions, types, constants and variables by name, and
// methods, struct fields and interface methods as "Type.Member".
func declarations(dir string) (map[string]bool, error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	out := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil && len(d.Recv.List) == 1 {
						name = receiverName(d.Recv.List[0].Type) + "." + name
					}
					out[name] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								out[n.Name] = true
							}
						case *ast.TypeSpec:
							out[sp.Name.Name] = true
							var members *ast.FieldList
							switch t := sp.Type.(type) {
							case *ast.StructType:
								members = t.Fields
							case *ast.InterfaceType:
								members = t.Methods
							}
							if members != nil {
								for _, fld := range members.List {
									for _, n := range fld.Names {
										out[sp.Name.Name+"."+n.Name] = true
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out, err
}

// receiverName returns the type name of a method receiver, through a
// pointer and type parameters.
func receiverName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
