// Package chase computes certain answers (Definition 2.2 of the paper)
// directly, by chasing the stored data with the PDMS descriptions viewed as
// tuple-generating dependencies and evaluating the query over the resulting
// canonical (universal) instance, discarding answers that contain labeled
// nulls.
//
// This is the test oracle for the reformulation engine: on specifications in
// the tractable fragment (Theorem 3.2(1)) the reformulation algorithm must
// return exactly the certain answers this package computes.
//
// Supported description shapes (the tractable fragment):
//
//   - storage containments  A.R ⊆ Q       → TGD  A.R(x̄) ⇒ ∃ȳ body(Q)
//   - storage equalities    A.R = Q       → the ⊆ direction only (the ⊇
//     direction constrains which instances are consistent but never adds
//     certain facts derivable from D alone)
//   - peer inclusions       Q1 ⊆ Q2       → TGD  body(Q1) ⇒ ∃ body(Q2)
//   - projection-free peer equalities     → TGDs in both directions
//   - definitional mappings p :- body     → TGD  body ⇒ p (the minimal
//     model realizes p as exactly the union of its rule bodies)
//
// Peer equalities with projections are rejected (certain answering is then
// co-NP-complete, Theorem 3.2, and a chase oracle would be unsound).
package chase

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/ppl"
	"repro/internal/rel"
)

// nullPrefix marks labeled nulls; parser constants can never start with it
// (it is not producible by the lexer).
const nullPrefix = "\x00⊥"

// IsNull reports whether a value is a labeled null introduced by the chase.
func IsNull(v string) bool { return strings.HasPrefix(v, nullPrefix) }

// tgd is a tuple-generating dependency body ⇒ ∃ head.
type tgd struct {
	id    string
	body  []lang.Atom
	comps []lang.Comparison
	head  []lang.Atom
}

// Options configures the chase.
type Options struct {
	// MaxRounds caps chase rounds as a defence against specifications
	// outside the terminating fragment; 0 means the default (10_000).
	MaxRounds int
}

// CertainAnswers computes the certain answers of q over the PDMS n with
// stored data. It returns an error when the specification is outside the
// supported fragment or the chase fails to terminate within the round cap.
func CertainAnswers(n *ppl.PDMS, data *rel.Instance, q lang.CQ, opts Options) ([]rel.Tuple, error) {
	inst, err := Chase(n, data, opts)
	if err != nil {
		return nil, err
	}
	rows, err := engine.New(inst).EvalCQ(q)
	if err != nil {
		return nil, err
	}
	out := rows[:0]
	for _, t := range rows {
		hasNull := false
		for _, v := range t {
			if IsNull(v) {
				hasNull = true
				break
			}
		}
		if !hasNull {
			out = append(out, t)
		}
	}
	return out, nil
}

// Chase runs the standard (restricted) chase and returns the canonical
// instance: stored data plus every derived peer/stored fact, with labeled
// nulls for existential values.
func Chase(n *ppl.PDMS, data *rel.Instance, opts Options) (*rel.Instance, error) {
	tgds, err := buildTGDs(n)
	if err != nil {
		return nil, err
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 10_000
	}
	inst := data.Clone()
	// One engine for the whole chase: TGD-body matching and the head-
	// satisfaction checks run as indexed joins, with indexes catching up
	// incrementally as fired TGDs add tuples.
	eng := engine.New(inst)
	nulls := 0
	freshNull := func() string {
		nulls++
		return fmt.Sprintf("%s%d", nullPrefix, nulls)
	}
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("chase: no fixpoint after %d rounds (non-terminating specification?)", maxRounds)
		}
		fired := false
		for _, d := range tgds {
			matches, err := findMatches(d, eng)
			if err != nil {
				return nil, err
			}
			for _, s := range matches {
				sat, err := headSatisfied(d, s, eng)
				if err != nil {
					return nil, err
				}
				if sat {
					continue
				}
				// Fire: fresh nulls for existential head variables.
				s2 := s.Clone()
				for _, a := range d.head {
					for _, t := range a.Args {
						if t.IsVar() && s2.Apply(t).IsVar() {
							s2[t.Name] = lang.Const(freshNull())
						}
					}
				}
				for _, a := range d.head {
					g := s2.ApplyAtom(a)
					tup := make(rel.Tuple, len(g.Args))
					for i, t := range g.Args {
						tup[i] = t.Name
					}
					added, err := inst.Add(g.Pred, tup)
					if err != nil {
						return nil, err
					}
					if added {
						fired = true
					}
				}
			}
		}
		if !fired {
			return inst, nil
		}
	}
}

// buildTGDs normalizes the PDMS descriptions to TGDs.
func buildTGDs(n *ppl.PDMS) ([]*tgd, error) {
	var out []*tgd
	for _, s := range n.Storages() {
		out = append(out, &tgd{
			id:    s.ID,
			body:  []lang.Atom{s.Stored},
			head:  s.Query.Body,
			comps: nil, // comparisons of the defining query constrain the
			// stored data; on the generative direction they hold vacuously
			// for tuples already in the store.
		})
	}
	for _, m := range n.Mappings() {
		switch m.Kind {
		case ppl.Inclusion:
			if len(m.LHS.Comps) > 0 || len(m.RHS.Comps) > 0 {
				return nil, fmt.Errorf("chase: comparison predicates in peer mapping %s unsupported (Thm 3.3(2))", m.ID)
			}
			out = append(out, &tgd{id: m.ID, body: m.LHS.Body, head: m.RHS.Body})
		case ppl.Equality:
			if m.LHS.HasProjection() || m.RHS.HasProjection() {
				return nil, fmt.Errorf("chase: equality mapping %s has projections; certain answering is co-NP (Thm 3.2)", m.ID)
			}
			if len(m.LHS.Comps) > 0 || len(m.RHS.Comps) > 0 {
				return nil, fmt.Errorf("chase: comparison predicates in peer mapping %s unsupported (Thm 3.3(2))", m.ID)
			}
			out = append(out,
				&tgd{id: m.ID + ".fw", body: m.LHS.Body, head: m.RHS.Body},
				&tgd{id: m.ID + ".bw", body: m.RHS.Body, head: m.LHS.Body})
		case ppl.Definitional:
			out = append(out, &tgd{
				id:    m.ID,
				body:  m.Rule.Body,
				comps: m.Rule.Comps,
				head:  []lang.Atom{m.Rule.Head},
			})
		}
	}
	return out, nil
}

// findMatches enumerates substitutions grounding the TGD body via the
// engine's indexed joins. Comparisons must be fully ground at match time
// and must not involve nulls (a comparison over an unknown value is not
// certainly true).
func findMatches(d *tgd, eng *engine.Engine) ([]lang.Subst, error) {
	var out []lang.Subst
	err := eng.Enumerate(d.body, nil, func(s lang.Subst) error {
		for _, c := range d.comps {
			g := s.ApplyComparison(c)
			if g.L.IsVar() || g.R.IsVar() {
				return fmt.Errorf("chase: comparison %s not bound by body of %s", c, d.id)
			}
			if IsNull(g.L.Name) || IsNull(g.R.Name) {
				return nil // not certainly satisfied
			}
			if !g.Op.EvalConst(g.L, g.R) {
				return nil
			}
		}
		out = append(out, s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// headSatisfied reports whether the TGD head already holds under some
// extension of s binding the existential head variables (the standard-
// chase applicability test, which keeps the chase terminating on acyclic
// specifications and lean on cyclic projection-free ones). Grounding the
// head first makes the engine probe indexes on the ground positions;
// ExistsMatch compiles without caching since every grounding is one-shot.
func headSatisfied(d *tgd, s lang.Subst, eng *engine.Engine) (bool, error) {
	return eng.ExistsMatch(s.ApplyAtoms(d.head))
}

// Nulls counts the labeled nulls in an instance (diagnostics for tests).
func Nulls(inst *rel.Instance) int {
	seen := map[string]bool{}
	for _, pred := range inst.Relations() {
		for _, t := range inst.Relation(pred).Tuples() {
			for _, v := range t {
				if IsNull(v) {
					seen[v] = true
				}
			}
		}
	}
	return len(seen)
}
