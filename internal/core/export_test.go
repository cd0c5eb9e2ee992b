package core

import "repro/internal/lang"

// mapBans is the ban set as the builder kept it before bitsets: a plain set
// of descriptions, copied whole on every extension and compared key by key.
// The differential tests run the builder on it as the reference.
type mapBans map[int]bool

func (m mapBans) has(d int) bool { return m[d] }

func (m mapBans) with(d int) banSet {
	out := make(mapBans, len(m)+1)
	for k := range m {
		out[k] = true
	}
	out[d] = true
	return out
}

func (m mapBans) within(cone bitset) banSet {
	out := mapBans{}
	for d := range m {
		if cone.has(d) {
			out[d] = true
		}
	}
	return out
}

func (m mapBans) subsetOf(other banSet) bool {
	o := other.(mapBans)
	if len(m) > len(o) {
		return false
	}
	for k := range m {
		if !o[k] {
			return false
		}
	}
	return true
}

// StreamMapBans is Stream on the map-based reference ban set.
func (r *Reformulator) StreamMapBans(q lang.CQ, yield func(lang.CQ) bool) (Stats, error) {
	return r.stream(q, nil, mapBans{}, yield)
}
