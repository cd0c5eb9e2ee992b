package core

import (
	"fmt"
	"strings"

	"repro/internal/lang"
)

// ExplainTree builds the rule-goal tree for q and renders it as an
// indented textual outline (Figure 2 of the paper, in ASCII): goal nodes
// show their label, rule nodes the description that created them, unc
// labels the covered uncles, and dead/stored markers the node's fate.
// Large trees are truncated at maxLines (0 = default 400).
func (r *Reformulator) ExplainTree(q lang.CQ, maxLines int) (string, error) {
	if err := r.check(q); err != nil {
		return "", err
	}
	root, b, err := r.build(q, nil)
	if err != nil {
		return "", err
	}
	if maxLines <= 0 {
		maxLines = 400
	}
	var sb strings.Builder
	lines := 0
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if lines >= maxLines {
			return
		}
		lines++
		indent := strings.Repeat("  ", depth)
		switch n.kind {
		case goalNode:
			marker := ""
			switch {
			case n.stored:
				marker = "  [stored]"
			case n.dead:
				marker = "  [dead end]"
			case len(n.children) == 0 && depth > 0:
				marker = "  [covered by sibling]"
			}
			fmt.Fprintf(&sb, "%sgoal %s%s\n", indent, b.langAtom(n.label), marker)
		case ruleNode:
			desc := "query"
			if n.desc >= 0 {
				desc = b.cat.descs[n.desc]
			}
			var extras []string
			if len(n.unc) > 0 {
				var covers []string
				for _, u := range n.unc {
					covers = append(covers, b.langAtom(u.label).String())
				}
				extras = append(extras, "unc={"+strings.Join(covers, ", ")+"}")
			}
			if len(n.export) > 0 {
				export := lang.NewSubst()
				for _, e := range n.export {
					export[b.langTerm(e.v).Name] = b.langTerm(e.t)
				}
				extras = append(extras, "export="+export.String())
			}
			if len(n.comps) > 0 {
				var cs []string
				for _, c := range b.langComps(nil, n.comps) {
					cs = append(cs, c.String())
				}
				extras = append(extras, "where "+strings.Join(cs, " AND "))
			}
			suffix := ""
			if len(extras) > 0 {
				suffix = "  (" + strings.Join(extras, "; ") + ")"
			}
			fmt.Fprintf(&sb, "%srule %s%s\n", indent, desc, suffix)
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	if lines >= maxLines {
		fmt.Fprintf(&sb, "… (truncated at %d lines)\n", maxLines)
	}
	return sb.String(), nil
}
