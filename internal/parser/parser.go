package parser

import (
	"fmt"
	"strings"

	"repro/internal/lang"
	"repro/internal/ppl"
	"repro/internal/rel"
)

// Result is the outcome of parsing a specification: a PDMS, optional data
// facts, and optional named queries (in file order).
type Result struct {
	PDMS    *ppl.PDMS
	Data    *rel.Instance
	Queries []lang.CQ
}

// Parse parses a full PPL specification.
func Parse(src string) (*Result, error) {
	p := &parser{lx: newLexer(src), res: &Result{PDMS: ppl.New(), Data: rel.NewInstance()}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	for p.tok.kind != tokEOF {
		if err := p.statement(); err != nil {
			return nil, err
		}
	}
	return p.res, nil
}

// ParseQuery parses a single query of the form "head(args) :- body".
func ParseQuery(src string) (lang.CQ, error) {
	p := &parser{lx: newLexer(src), res: &Result{PDMS: ppl.New(), Data: rel.NewInstance()}}
	if err := p.advance(); err != nil {
		return lang.CQ{}, err
	}
	q, err := p.rule(false)
	if err != nil {
		return lang.CQ{}, err
	}
	if p.tok.kind != tokEOF {
		return lang.CQ{}, p.errHere("trailing input after query")
	}
	return q, nil
}

type parser struct {
	lx  *lexer
	tok token
	res *Result
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errHere(format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", p.tok.line, p.tok.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.errHere("expected %s, found %s %q", k, p.tok.kind, p.tok.text)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

// statement dispatches on the leading keyword.
func (p *parser) statement() error {
	if p.tok.kind != tokIdent {
		return p.errHere("expected statement keyword, found %s %q", p.tok.kind, p.tok.text)
	}
	switch p.tok.text {
	case "peer":
		return p.peerDecl()
	case "stored":
		return p.storedDecl()
	case "define":
		return p.defineStmt()
	case "include":
		return p.includeStmt()
	case "equal":
		return p.equalStmt()
	case "storage":
		return p.storageStmt()
	case "fact":
		return p.factStmt()
	case "query":
		return p.queryStmt()
	default:
		return p.errHere("unknown statement keyword %q", p.tok.text)
	}
}

// peerDecl: peer NAME { Rel(attr, ...) ... }
func (p *parser) peerDecl() error {
	if err := p.advance(); err != nil { // consume 'peer'
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if strings.ContainsAny(name.text, ":.") {
		return p.errHere("peer name %q must be unqualified", name.text)
	}
	if err := p.res.PDMS.AddPeer(name.text); err != nil {
		return err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	for p.tok.kind != tokRBrace {
		rn, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		if strings.ContainsAny(rn.text, ":.") {
			return p.errHere("relation name %q in peer block must be unqualified", rn.text)
		}
		attrs, err := p.attrList()
		if err != nil {
			return err
		}
		decl := ppl.RelationDecl{
			Name:  name.text + ":" + rn.text,
			Peer:  name.text,
			Arity: len(attrs),
			Attrs: attrs,
			Kind:  ppl.PeerRelation,
		}
		if err := p.res.PDMS.DeclareRelation(decl); err != nil {
			return err
		}
	}
	_, err = p.expect(tokRBrace)
	return err
}

// storedDecl: stored Peer.Rel(attr, ...)
func (p *parser) storedDecl() error {
	if err := p.advance(); err != nil {
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	peer, _, ok := splitQualified(name.text, '.')
	if !ok {
		return p.errHere("stored relation %q must be qualified as Peer.Relation", name.text)
	}
	attrs, err := p.attrList()
	if err != nil {
		return err
	}
	return p.res.PDMS.DeclareRelation(ppl.RelationDecl{
		Name:  name.text,
		Peer:  peer,
		Arity: len(attrs),
		Attrs: attrs,
		Kind:  ppl.StoredRelation,
	})
}

// attrList: ( ident, ident, ... )
func (p *parser) attrList() ([]string, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var attrs []string
	for {
		id, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, id.text)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return attrs, nil
}

// defineStmt: define Head(args) :- body
func (p *parser) defineStmt() error {
	if err := p.advance(); err != nil {
		return err
	}
	rule, err := p.rule(true)
	if err != nil {
		return err
	}
	p.declareAtoms(append([]lang.Atom{rule.Head}, rule.Body...))
	return p.res.PDMS.AddMapping(&ppl.Mapping{Kind: ppl.Definitional, Rule: rule})
}

// includeStmt: include conj in conj
func (p *parser) includeStmt() error {
	if err := p.advance(); err != nil {
		return err
	}
	lhs, rhs, err := p.twoSides("in")
	if err != nil {
		return err
	}
	return p.res.PDMS.AddMapping(&ppl.Mapping{Kind: ppl.Inclusion, LHS: lhs, RHS: rhs})
}

// equalStmt: equal conj and conj
func (p *parser) equalStmt() error {
	if err := p.advance(); err != nil {
		return err
	}
	lhs, rhs, err := p.twoSides("and")
	if err != nil {
		return err
	}
	return p.res.PDMS.AddMapping(&ppl.Mapping{Kind: ppl.Equality, LHS: lhs, RHS: rhs})
}

// twoSides parses "conj KEYWORD conj" and builds the two CQs whose shared
// head is the list of variables common to both sides.
func (p *parser) twoSides(sep string) (lhs, rhs lang.CQ, err error) {
	la, lc, err := p.conj(sep)
	if err != nil {
		return lhs, rhs, err
	}
	if p.tok.kind != tokIdent || p.tok.text != sep {
		return lhs, rhs, p.errHere("expected %q between mapping sides", sep)
	}
	if err := p.advance(); err != nil {
		return lhs, rhs, err
	}
	ra, rc, err := p.conj("")
	if err != nil {
		return lhs, rhs, err
	}
	p.declareAtoms(la)
	p.declareAtoms(ra)
	// Head variables: those occurring in both sides' atoms.
	var lvs, rvs []lang.Term
	for _, a := range la {
		lvs = a.Vars(lvs)
	}
	for _, a := range ra {
		rvs = a.Vars(rvs)
	}
	rset := map[lang.Term]bool{}
	for _, t := range rvs {
		rset[t] = true
	}
	var head []lang.Term
	for _, t := range lvs {
		if rset[t] {
			head = append(head, t)
		}
	}
	h := lang.Atom{Pred: "_map", Args: head}
	lhs = lang.CQ{Head: h, Body: la, Comps: lc}
	rhs = lang.CQ{Head: h.Clone(), Body: ra, Comps: rc}
	return lhs, rhs, nil
}

// storageStmt: storage Peer.Rel(args) (in|=) conj
func (p *parser) storageStmt() error {
	if err := p.advance(); err != nil {
		return err
	}
	stored, err := p.atom()
	if err != nil {
		return err
	}
	if _, _, ok := splitQualified(stored.Pred, '.'); !ok {
		return p.errHere("storage head %q must be a stored relation (Peer.Relation)", stored.Pred)
	}
	var kind ppl.StorageKind
	switch {
	case p.tok.kind == tokIdent && p.tok.text == "in":
		kind = ppl.StorageContainment
	case p.tok.kind == tokEq:
		kind = ppl.StorageEquality
	default:
		return p.errHere("expected 'in' or '=' after storage head")
	}
	if err := p.advance(); err != nil {
		return err
	}
	atoms, comps, err := p.conj("")
	if err != nil {
		return err
	}
	p.declareAtoms([]lang.Atom{stored})
	p.declareAtoms(atoms)
	head := lang.Atom{Pred: "_store", Args: append([]lang.Term{}, stored.Args...)}
	return p.res.PDMS.AddStorage(&ppl.Storage{
		Kind:   kind,
		Stored: stored,
		Query:  lang.CQ{Head: head, Body: atoms, Comps: comps},
	})
}

// factStmt: fact Peer.Rel(const, ...)
func (p *parser) factStmt() error {
	if err := p.advance(); err != nil {
		return err
	}
	a, err := p.atom()
	if err != nil {
		return err
	}
	tup := make(rel.Tuple, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() {
			return p.errHere("fact arguments must be constants, found variable %q", t.Name)
		}
		tup[i] = t.Name
	}
	if d := p.res.PDMS.Relation(a.Pred); d != nil && d.Arity != len(tup) {
		return p.errHere("fact %s has %d values, relation declared with arity %d", a.Pred, len(tup), d.Arity)
	}
	p.declareAtoms([]lang.Atom{a})
	_, err = p.res.Data.Add(a.Pred, tup)
	return err
}

// queryStmt: query head(args) :- body
func (p *parser) queryStmt() error {
	if err := p.advance(); err != nil {
		return err
	}
	q, err := p.rule(false)
	if err != nil {
		return err
	}
	p.declareAtoms(q.Body)
	p.res.Queries = append(p.res.Queries, q)
	return nil
}

// rule: head(args) :- atom, atom, comp, ...   (declareHead controls whether
// the head predicate must be qualified — true for definitional mappings).
func (p *parser) rule(declareHead bool) (lang.CQ, error) {
	head, err := p.atom()
	if err != nil {
		return lang.CQ{}, err
	}
	if declareHead {
		if _, _, ok := splitQualified(head.Pred, ':'); !ok {
			return lang.CQ{}, p.errHere("definitional head %q must be a peer relation (Peer:Relation)", head.Pred)
		}
	}
	if _, err := p.expect(tokImplies); err != nil {
		return lang.CQ{}, err
	}
	atoms, comps, err := p.conj("")
	if err != nil {
		return lang.CQ{}, err
	}
	return lang.CQ{Head: head, Body: atoms, Comps: comps}, nil
}

// conj parses a comma-separated list of atoms and comparisons, stopping at
// EOF, at a statement keyword, or at stopWord.
func (p *parser) conj(stopWord string) ([]lang.Atom, []lang.Comparison, error) {
	var atoms []lang.Atom
	var comps []lang.Comparison
	for {
		item, cmp, isCmp, err := p.conjunct()
		if err != nil {
			return nil, nil, err
		}
		if isCmp {
			comps = append(comps, cmp)
		} else {
			atoms = append(atoms, item)
		}
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
			continue
		}
		return atoms, comps, nil
	}
}

// conjunct parses either an atom or a comparison "term op term".
func (p *parser) conjunct() (lang.Atom, lang.Comparison, bool, error) {
	// Lookahead: ident '(' → atom; otherwise a term followed by an operator.
	if p.tok.kind == tokIdent {
		name := p.tok
		if err := p.advance(); err != nil {
			return lang.Atom{}, lang.Comparison{}, false, err
		}
		if p.tok.kind == tokLParen {
			args, err := p.argList()
			if err != nil {
				return lang.Atom{}, lang.Comparison{}, false, err
			}
			return lang.Atom{Pred: name.text, Args: args}, lang.Comparison{}, false, nil
		}
		// It must be a comparison whose left side is the variable `name`.
		cmp, err := p.comparisonAfter(lang.Var(name.text))
		return lang.Atom{}, cmp, true, err
	}
	// Left side is a constant.
	l, err := p.term()
	if err != nil {
		return lang.Atom{}, lang.Comparison{}, false, err
	}
	cmp, err := p.comparisonAfter(l)
	return lang.Atom{}, cmp, true, err
}

func (p *parser) comparisonAfter(l lang.Term) (lang.Comparison, error) {
	var op lang.CompOp
	switch p.tok.kind {
	case tokEq:
		op = lang.OpEQ
	case tokNe:
		op = lang.OpNE
	case tokLt:
		op = lang.OpLT
	case tokLe:
		op = lang.OpLE
	case tokGt:
		op = lang.OpGT
	case tokGe:
		op = lang.OpGE
	default:
		return lang.Comparison{}, p.errHere("expected comparison operator, found %s %q", p.tok.kind, p.tok.text)
	}
	if err := p.advance(); err != nil {
		return lang.Comparison{}, err
	}
	r, err := p.term()
	if err != nil {
		return lang.Comparison{}, err
	}
	return lang.Comparison{Op: op, L: l, R: r}, nil
}

// atom: ident ( args )
func (p *parser) atom() (lang.Atom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return lang.Atom{}, err
	}
	args, err := p.argList()
	if err != nil {
		return lang.Atom{}, err
	}
	return lang.Atom{Pred: name.text, Args: args}, nil
}

// argList: ( term, term, ... )
func (p *parser) argList() ([]lang.Term, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var args []lang.Term
	for {
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		args = append(args, t)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return args, nil
}

// term: ident (variable) | string | number (constants)
func (p *parser) term() (lang.Term, error) {
	switch p.tok.kind {
	case tokIdent:
		if strings.ContainsAny(p.tok.text, ":.") {
			return lang.Term{}, p.errHere("qualified name %q cannot be a term", p.tok.text)
		}
		t := lang.Var(p.tok.text)
		return t, p.advance()
	case tokString, tokNumber:
		t := lang.Const(p.tok.text)
		return t, p.advance()
	default:
		return lang.Term{}, p.errHere("expected term, found %s %q", p.tok.kind, p.tok.text)
	}
}

// declareAtoms auto-declares relations on first use: "A:R" as a peer
// relation of peer A, "A.R" as a stored relation of peer A. Unqualified
// predicates (query heads, mapping heads) are not declared. Redeclaration
// errors are surfaced lazily by Add* calls; here mismatches are ignored so
// the caller's AddMapping/AddStorage report them with context.
func (p *parser) declareAtoms(atoms []lang.Atom) {
	for _, a := range atoms {
		if peer, _, ok := splitQualified(a.Pred, ':'); ok {
			_ = p.res.PDMS.DeclareRelation(ppl.RelationDecl{
				Name: a.Pred, Peer: peer, Arity: a.Arity(), Kind: ppl.PeerRelation,
			})
		} else if peer, _, ok := splitQualified(a.Pred, '.'); ok {
			_ = p.res.PDMS.DeclareRelation(ppl.RelationDecl{
				Name: a.Pred, Peer: peer, Arity: a.Arity(), Kind: ppl.StoredRelation,
			})
		}
	}
}

// splitQualified splits "A:B" (or "A.B") into its parts.
func splitQualified(s string, sep byte) (peer, rel string, ok bool) {
	i := strings.IndexByte(s, sep)
	if i <= 0 || i == len(s)-1 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}
