package core

// bitset is a set of dense description indexes, one bit each. The nil value
// is the empty set, and sets of different lengths compare as if padded with
// zero words. Only catalog construction mutates a bitset (set, union);
// everything a builder sees is read-only and extended by copy.
type bitset []uint64

func (s bitset) has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

// set adds i to s, which must be long enough to hold it.
func (s bitset) set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// union adds o's members to s, which must be at least as long as o, and
// reports whether s grew.
func (s bitset) union(o bitset) bool {
	grew := false
	for w, x := range o {
		if x&^s[w] != 0 {
			s[w] |= x
			grew = true
		}
	}
	return grew
}

// within returns the members of s that lie in cone.
func (s bitset) within(cone bitset) bitset {
	n := len(s)
	if len(cone) < n {
		n = len(cone)
	}
	out := make(bitset, n)
	for w := range out {
		out[w] = s[w] & cone[w]
	}
	return out
}

// subsetOf reports whether every member of s is in o.
func (s bitset) subsetOf(o bitset) bool {
	for w, x := range s {
		if w >= len(o) {
			if x != 0 {
				return false
			}
		} else if x&^o[w] != 0 {
			return false
		}
	}
	return true
}

// meets reports whether s and o share a member.
func (s bitset) meets(o bitset) bool {
	for w := range min(len(s), len(o)) {
		if s[w]&o[w] != 0 {
			return true
		}
	}
	return false
}
