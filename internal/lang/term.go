// Package lang defines the logical core shared by every other package in the
// repository: terms, atoms, conjunctive queries (CQs), unions of conjunctive
// queries (UCQs), datalog rules, substitutions, unification and matching.
//
// The representation follows Section 2 of Halevy et al., "Schema Mediation in
// Peer Data Management Systems" (ICDE 2003): select-project-join queries with
// set semantics written as conjunctive queries, where joins are expressed by
// repeated variables, plus optional comparison predicates.
package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// Term is a variable or a constant. The zero value is an unnamed variable,
// which is not valid; construct terms with Var and Const.
type Term struct {
	// Name is the variable name, or the constant's lexical value.
	Name string
	// Kind distinguishes variables from constants.
	Kind TermKind
}

// TermKind discriminates Term.
type TermKind uint8

const (
	// KindVar marks a variable term.
	KindVar TermKind = iota
	// KindConst marks a constant term.
	KindConst
)

// Var returns a variable term with the given name.
func Var(name string) Term { return Term{Name: name, Kind: KindVar} }

// Const returns a constant term with the given lexical value.
func Const(v string) Term { return Term{Name: v, Kind: KindConst} }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Kind == KindVar }

// IsConst reports whether t is a constant.
func (t Term) IsConst() bool { return t.Kind == KindConst }

// String renders the term: variables bare, constants double-quoted unless
// they are numeric literals the parser tokenizes back as numbers. The test
// must be the parser's exact number grammar, not strconv.ParseFloat: that
// also accepts "Inf", "1e5" or "0x1p2", which printed bare either fail to
// reparse or — worse — reparse as a *variable*, silently changing the
// query.
func (t Term) String() string {
	if t.IsVar() {
		return t.Name
	}
	if isNumericLexeme(t.Name) {
		return t.Name
	}
	return strconv.Quote(t.Name)
}

// isNumericLexeme reports whether s matches the parser's numeric-literal
// grammar exactly: -?digits(.digits)?.
func isNumericLexeme(s string) bool {
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	start := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == start {
		return false
	}
	if i == len(s) {
		return true
	}
	if s[i] != '.' {
		return false
	}
	i++
	start = i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i > start && i == len(s)
}

// maybeNumeric cheaply rejects values that cannot possibly parse as
// floats, so comparison-heavy scans never pay strconv.ParseFloat's
// allocated syntax error for plainly textual values ("o00123456" vs a
// cutoff used to allocate twice per scanned tuple). The accepted first
// bytes cover every ParseFloat grammar: sign, digit, dot, and the
// case-insensitive inf/NaN spellings.
func maybeNumeric(s string) bool {
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9':
		return true
	case c == '+' || c == '-' || c == '.':
		return true
	case c == 'i' || c == 'I' || c == 'n' || c == 'N':
		return true // inf / Infinity / NaN
	}
	return false
}

// CompareConst orders two constant lexical values: numerically when both
// parse as floats, lexicographically otherwise. It returns -1, 0, or +1.
// Both terms must be constants.
func CompareConst(a, b Term) int {
	if !maybeNumeric(a.Name) || !maybeNumeric(b.Name) {
		return strings.Compare(a.Name, b.Name)
	}
	fa, ea := strconv.ParseFloat(a.Name, 64)
	fb, eb := strconv.ParseFloat(b.Name, 64)
	if ea == nil && eb == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.Name, b.Name)
}

// Atom is a predicate applied to a list of terms. Pred names are globally
// unique: peer relations use the "Peer:Relation" convention and stored
// relations use "Peer.Relation" (Section 2 assumes global uniqueness).
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args}
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// Vars appends the distinct variables of a, in order of first occurrence,
// to dst and returns the extended slice.
func (a Atom) Vars(dst []Term) []Term {
	for _, t := range a.Args {
		if t.IsVar() && !containsTerm(dst, t) {
			dst = append(dst, t)
		}
	}
	return dst
}

// HasVar reports whether variable v occurs in the atom.
func (a Atom) HasVar(v Term) bool {
	for _, t := range a.Args {
		if t == v {
			return true
		}
	}
	return false
}

// Equal reports structural equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// String renders the atom as Pred(t1, ..., tn).
func (a Atom) String() string {
	var sb strings.Builder
	sb.WriteString(a.Pred)
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

func containsTerm(ts []Term, t Term) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// CompOp is a comparison operator for comparison predicates.
type CompOp uint8

// Comparison operators. The paper's language allows =, < (and by symmetry
// the remaining standard operators); we support the full set.
const (
	OpEQ CompOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// String renders the operator.
func (op CompOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return fmt.Sprintf("CompOp(%d)", uint8(op))
	}
}

// Negate returns the complementary operator: NOT (a op b) == a op.Negate() b.
func (op CompOp) Negate() CompOp {
	switch op {
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	case OpLT:
		return OpGE
	case OpLE:
		return OpGT
	case OpGT:
		return OpLE
	case OpGE:
		return OpLT
	}
	return op
}

// EvalConst evaluates the operator over two constant terms.
func (op CompOp) EvalConst(a, b Term) bool {
	c := CompareConst(a, b)
	switch op {
	case OpEQ:
		return c == 0
	case OpNE:
		return c != 0
	case OpLT:
		return c < 0
	case OpLE:
		return c <= 0
	case OpGT:
		return c > 0
	case OpGE:
		return c >= 0
	}
	return false
}

// Comparison is a comparison predicate L op R over terms.
type Comparison struct {
	Op   CompOp
	L, R Term
}

// String renders the comparison.
func (c Comparison) String() string {
	return c.L.String() + " " + c.Op.String() + " " + c.R.String()
}

// Vars appends the distinct variables of c not already in dst.
func (c Comparison) Vars(dst []Term) []Term {
	if c.L.IsVar() && !containsTerm(dst, c.L) {
		dst = append(dst, c.L)
	}
	if c.R.IsVar() && !containsTerm(dst, c.R) {
		dst = append(dst, c.R)
	}
	return dst
}
