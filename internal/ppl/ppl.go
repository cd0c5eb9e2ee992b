// Package ppl models the PPL ("Peer-Programming Language") schema-mediation
// formalism of Section 2 of the paper: peer schemas, stored relations,
// storage descriptions, and the three kinds of peer mappings (inclusions,
// equalities, definitional datalog rules). It also implements the structural
// analyses of Section 3: the acyclicity test of Definition 3.1 and the
// complexity classification of Theorems 3.1–3.3.
//
// Naming convention (global uniqueness per Section 2): peer relations are
// written "Peer:Relation" and stored relations "Peer.Relation".
package ppl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lang"
	"repro/internal/rel"
)

// RelationKind distinguishes peer (virtual) relations from stored relations.
type RelationKind uint8

const (
	// PeerRelation is a virtual relation of a peer schema.
	PeerRelation RelationKind = iota
	// StoredRelation holds actual data at a peer.
	StoredRelation
)

// RelationDecl declares a relation in a peer's schema.
type RelationDecl struct {
	// Name is the globally unique predicate name ("H:Doctor", "FH.doc").
	Name string
	// Peer is the owning peer.
	Peer string
	// Arity is the number of attributes.
	Arity int
	// Attrs optionally names the attributes (len == Arity when present).
	Attrs []string
	// Kind says whether the relation is virtual or stored.
	Kind RelationKind
}

// MappingKind identifies the kind of a peer mapping or storage description.
type MappingKind uint8

const (
	// Inclusion is Q1 ⊆ Q2.
	Inclusion MappingKind = iota
	// Equality is Q1 = Q2.
	Equality
	// Definitional is a datalog rule over peer relations.
	Definitional
)

// String names the mapping kind.
func (k MappingKind) String() string {
	switch k {
	case Inclusion:
		return "inclusion"
	case Equality:
		return "equality"
	case Definitional:
		return "definitional"
	default:
		return fmt.Sprintf("MappingKind(%d)", uint8(k))
	}
}

// Mapping is a peer mapping in PPL.
//
//   - Inclusion/Equality: LHS and RHS are conjunctive queries of equal head
//     arity; the statement is LHS ⊆ RHS (resp. LHS = RHS). Head predicates
//     are synthetic and serve only to align the two sides' variables.
//   - Definitional: Rule is a datalog rule whose head and body are peer
//     relations; LHS/RHS are unused.
type Mapping struct {
	// ID is a unique identifier for the description (used for the
	// once-per-path reuse rule during reformulation and for diagnostics).
	ID string
	// Kind is the mapping kind.
	Kind MappingKind
	// LHS and RHS are the two sides of an inclusion or equality.
	LHS, RHS lang.CQ
	// Rule is the datalog rule of a definitional mapping.
	Rule lang.CQ
}

// Validate checks internal consistency of the mapping.
func (m *Mapping) Validate() error {
	switch m.Kind {
	case Inclusion, Equality:
		if m.LHS.Head.Arity() != m.RHS.Head.Arity() {
			return fmt.Errorf("ppl: mapping %s: side arities differ (%d vs %d)",
				m.ID, m.LHS.Head.Arity(), m.RHS.Head.Arity())
		}
		if len(m.LHS.Body) == 0 || len(m.RHS.Body) == 0 {
			return fmt.Errorf("ppl: mapping %s: empty side", m.ID)
		}
		if !m.LHS.IsSafe() || !m.RHS.IsSafe() {
			return fmt.Errorf("ppl: mapping %s: unsafe side", m.ID)
		}
	case Definitional:
		if len(m.Rule.Body) == 0 {
			return fmt.Errorf("ppl: mapping %s: empty definitional body", m.ID)
		}
		if !m.Rule.IsSafe() {
			return fmt.Errorf("ppl: mapping %s: unsafe rule", m.ID)
		}
	default:
		return fmt.Errorf("ppl: mapping %s: unknown kind %d", m.ID, m.Kind)
	}
	return nil
}

// String renders the mapping.
func (m *Mapping) String() string {
	switch m.Kind {
	case Inclusion:
		return fmt.Sprintf("%s: %s ⊆ %s", m.ID, m.LHS, m.RHS)
	case Equality:
		return fmt.Sprintf("%s: %s = %s", m.ID, m.LHS, m.RHS)
	default:
		return fmt.Sprintf("%s: %s", m.ID, m.Rule)
	}
}

// StorageKind identifies containment vs equality storage descriptions.
type StorageKind uint8

const (
	// StorageContainment is A:R ⊆ Q (open-world).
	StorageContainment StorageKind = iota
	// StorageEquality is A:R = Q (closed/exact).
	StorageEquality
)

// Storage is a storage description: it relates a stored relation to a query
// over the owning peer's schema (Section 2.1.2).
type Storage struct {
	// ID uniquely identifies the description.
	ID string
	// Kind is containment (⊆) or equality (=).
	Kind StorageKind
	// Stored is the stored-relation head atom A.R(x̄).
	Stored lang.Atom
	// Query is the defining query over peer relations; its head arity
	// equals the stored relation's and shares its variables.
	Query lang.CQ
}

// Validate checks internal consistency of the storage description.
func (s *Storage) Validate() error {
	if s.Stored.Arity() != s.Query.Head.Arity() {
		return fmt.Errorf("ppl: storage %s: arity mismatch (%d vs %d)",
			s.ID, s.Stored.Arity(), s.Query.Head.Arity())
	}
	if len(s.Query.Body) == 0 {
		return fmt.Errorf("ppl: storage %s: empty defining query", s.ID)
	}
	if !s.Query.IsSafe() {
		return fmt.Errorf("ppl: storage %s: unsafe defining query", s.ID)
	}
	return nil
}

// String renders the storage description.
func (s *Storage) String() string {
	op := "⊆"
	if s.Kind == StorageEquality {
		op = "="
	}
	body := make([]string, len(s.Query.Body))
	for i, a := range s.Query.Body {
		body[i] = a.String()
	}
	return fmt.Sprintf("%s: %s %s %s", s.ID, s.Stored, op, strings.Join(body, ", "))
}

// PDMS is a peer data management system specification N: peers with their
// schemas, storage descriptions D_N and peer mappings L_N.
type PDMS struct {
	peers     map[string]bool
	relations map[string]*RelationDecl
	mappings  []*Mapping
	storage   []*Storage
	nextID    int
}

// New returns an empty PDMS specification.
func New() *PDMS {
	return &PDMS{
		peers:     map[string]bool{},
		relations: map[string]*RelationDecl{},
	}
}

// AddPeer registers a peer name. Adding an existing peer is a no-op.
func (n *PDMS) AddPeer(name string) error {
	if name == "" {
		return fmt.Errorf("ppl: empty peer name")
	}
	n.peers[name] = true
	return nil
}

// HasPeer reports whether the peer exists.
func (n *PDMS) HasPeer(name string) bool { return n.peers[name] }

// Peers returns the sorted peer names.
func (n *PDMS) Peers() []string {
	out := make([]string, 0, len(n.peers))
	for p := range n.peers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// DeclareRelation registers a relation declaration; the owning peer is added
// implicitly. Redeclaration with a different arity or kind is an error.
func (n *PDMS) DeclareRelation(d RelationDecl) error {
	if d.Name == "" || d.Peer == "" {
		return fmt.Errorf("ppl: relation declaration missing name or peer: %+v", d)
	}
	if d.Arity <= 0 {
		return fmt.Errorf("ppl: relation %s: non-positive arity %d", d.Name, d.Arity)
	}
	if len(d.Attrs) > 0 && len(d.Attrs) != d.Arity {
		return fmt.Errorf("ppl: relation %s: %d attrs for arity %d", d.Name, len(d.Attrs), d.Arity)
	}
	if prev, ok := n.relations[d.Name]; ok {
		if prev.Arity != d.Arity || prev.Kind != d.Kind {
			return fmt.Errorf("ppl: relation %s redeclared incompatibly", d.Name)
		}
		return nil
	}
	n.peers[d.Peer] = true
	cp := d
	n.relations[d.Name] = &cp
	return nil
}

// Relation returns the declaration for a predicate name, or nil.
func (n *PDMS) Relation(name string) *RelationDecl { return n.relations[name] }

// IsStored reports whether the predicate names a stored relation.
func (n *PDMS) IsStored(name string) bool {
	d := n.relations[name]
	return d != nil && d.Kind == StoredRelation
}

// RelationNames returns all declared predicate names, sorted.
func (n *PDMS) RelationNames() []string {
	out := make([]string, 0, len(n.relations))
	for name := range n.relations {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AddMapping validates and registers a peer mapping. If the mapping has no
// ID one is assigned.
func (n *PDMS) AddMapping(m *Mapping) error {
	if m.ID == "" {
		m.ID = fmt.Sprintf("m%d", n.nextID)
		n.nextID++
	}
	if err := m.Validate(); err != nil {
		return err
	}
	if err := n.checkAtoms(m.ID, m.allAtoms()); err != nil {
		return err
	}
	n.mappings = append(n.mappings, m)
	return nil
}

// AddStorage validates and registers a storage description. If it has no ID
// one is assigned.
func (n *PDMS) AddStorage(s *Storage) error {
	if s.ID == "" {
		s.ID = fmt.Sprintf("s%d", n.nextID)
		n.nextID++
	}
	if err := s.Validate(); err != nil {
		return err
	}
	atoms := append([]lang.Atom{s.Stored}, s.Query.Body...)
	if err := n.checkAtoms(s.ID, atoms); err != nil {
		return err
	}
	if !n.IsStored(s.Stored.Pred) {
		return fmt.Errorf("ppl: storage %s: head %s is not a declared stored relation", s.ID, s.Stored.Pred)
	}
	for _, a := range s.Query.Body {
		if n.IsStored(a.Pred) {
			return fmt.Errorf("ppl: storage %s: defining query references stored relation %s", s.ID, a.Pred)
		}
	}
	n.storage = append(n.storage, s)
	return nil
}

// CheckFact reports whether values may be a row of pred: when pred is
// declared, values must match its arity, and the row must satisfy every
// comparison of pred's storage descriptions whose variables all occur in
// the stored atom. A row that fails a comparison contradicts its storage
// description, so no consistent instance holds it.
func (n *PDMS) CheckFact(pred string, values []string) error {
	if d := n.relations[pred]; d != nil && d.Arity != len(values) {
		return fmt.Errorf("ppl: fact %s has %d values, relation declared with arity %d", pred, len(values), d.Arity)
	}
	for _, s := range n.storage {
		if s.Stored.Pred != pred {
			continue
		}
		value := func(t lang.Term) (lang.Term, bool) {
			if t.IsConst() {
				return t, true
			}
			for i, a := range s.Stored.Args {
				if a == t {
					return lang.Const(values[i]), true
				}
			}
			return t, false
		}
		for _, c := range s.Query.Comps {
			l, okL := value(c.L)
			r, okR := value(c.R)
			if okL && okR && !c.Op.EvalConst(l, r) {
				fact := lang.Atom{Pred: pred, Args: make([]lang.Term, len(values))}
				for i, v := range values {
					fact.Args[i] = lang.Const(v)
				}
				return fmt.Errorf("ppl: fact %s violates storage %s: %s", fact, s.ID, c)
			}
		}
	}
	return nil
}

// CheckStored runs CheckFact over data's rows of every relation that has a
// storage description with comparisons; a description without comparisons
// cannot contradict a row of the right arity. Rows written under another
// specification — a replayed journal, a network being extended — go
// through it before they are served.
func (n *PDMS) CheckStored(data *rel.Instance) error {
	for _, s := range n.storage {
		r := data.Relation(s.Stored.Pred)
		if r == nil || len(s.Query.Comps) == 0 {
			continue
		}
		for _, t := range r.Tuples() {
			if err := n.CheckFact(s.Stored.Pred, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkAtoms verifies each atom against the declared relations.
func (n *PDMS) checkAtoms(id string, atoms []lang.Atom) error {
	for _, a := range atoms {
		d := n.relations[a.Pred]
		if d == nil {
			return fmt.Errorf("ppl: %s: undeclared relation %s", id, a.Pred)
		}
		if d.Arity != a.Arity() {
			return fmt.Errorf("ppl: %s: atom %s has arity %d, declared %d", id, a, a.Arity(), d.Arity)
		}
	}
	return nil
}

// Mappings returns the registered peer mappings.
func (n *PDMS) Mappings() []*Mapping { return n.mappings }

// Storages returns the registered storage descriptions.
func (n *PDMS) Storages() []*Storage { return n.storage }

// ValidateQuery checks a user query against the PDMS schema: every body atom
// must be a declared relation with matching arity, and the query must be
// safe.
func (n *PDMS) ValidateQuery(q lang.CQ) error {
	if !q.IsSafe() {
		return fmt.Errorf("ppl: unsafe query %s", q)
	}
	return n.checkAtoms("query", q.Body)
}

// allAtoms collects every atom mentioned by a mapping.
func (m *Mapping) allAtoms() []lang.Atom {
	switch m.Kind {
	case Definitional:
		return append([]lang.Atom{m.Rule.Head}, m.Rule.Body...)
	default:
		out := append([]lang.Atom{}, m.LHS.Body...)
		return append(out, m.RHS.Body...)
	}
}

// Stats summarizes a PDMS for diagnostics and experiments.
type Stats struct {
	Peers         int
	PeerRelations int
	StoredRels    int
	Inclusions    int
	Equalities    int
	Definitional  int
	StorageDescrs int
}

// Stats computes summary statistics.
func (n *PDMS) Stats() Stats {
	st := Stats{Peers: len(n.peers), StorageDescrs: len(n.storage)}
	for _, d := range n.relations {
		if d.Kind == StoredRelation {
			st.StoredRels++
		} else {
			st.PeerRelations++
		}
	}
	for _, m := range n.mappings {
		switch m.Kind {
		case Inclusion:
			st.Inclusions++
		case Equality:
			st.Equalities++
		default:
			st.Definitional++
		}
	}
	return st
}
