package simil

// osaMaxPattern is the longest pattern, in runes, the bit-parallel kernel
// handles: one machine word holds one bit per pattern rune.
const osaMaxPattern = 64

// osaBitParallel returns the optimal-string-alignment distance between
// pattern p (1 to 64 runes) and text t, by Hyyrö's bit-vector recurrence
// (H. Hyyrö, "A bit-vector algorithm for computing Levenshtein and Damerau
// edit distances", Nordic Journal of Computing 10(1), 2003). One DP column
// is two words of vertical deltas (vp: +1, vn: -1), so the text is scanned
// once with a few word operations per rune instead of len(p) DP cells; the
// distance is the bottom cell of the last column, which equals
// damerauLevenshteinDP's.
//
// Match masks of ASCII runes come from a table in the Scratch, filled from
// the pattern on entry and cleared again on return; masks of other runes
// (including the U+FFFD that invalid UTF-8 decodes to) are found by a
// linear scan of the pattern, which is skipped when the pattern is ASCII.
func osaBitParallel(p, t []rune, sc *Scratch) int {
	if sc.peq == nil {
		sc.peq = new([128]uint64)
	}
	peq := sc.peq
	ascii := true
	for i, r := range p {
		if uint32(r) < 128 {
			peq[r] |= 1 << uint(i)
		} else {
			ascii = false
		}
	}
	vp, vn := ^uint64(0), uint64(0)
	var d0, pmPrev uint64
	last := uint64(1) << uint(len(p)-1)
	dist := len(p)
	for _, c := range t {
		var pm uint64
		if uint32(c) < 128 {
			pm = peq[c]
		} else if !ascii {
			for i, r := range p {
				if r == c {
					pm |= 1 << uint(i)
				}
			}
		}
		// tr marks the rows where a transposition of p[i-1..i] with the
		// previous and current text runes reaches the diagonal.
		tr := ((^d0 & pm) << 1) & pmPrev
		d0 = (((pm & vp) + vp) ^ vp) | pm | vn | tr
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		if hp&last != 0 {
			dist++
		}
		if hn&last != 0 {
			dist--
		}
		hp = hp<<1 | 1
		hn <<= 1
		vp = hn | ^(d0 | hp)
		vn = hp & d0
		pmPrev = pm
	}
	for _, r := range p {
		if uint32(r) < 128 {
			peq[r] = 0
		}
	}
	return dist
}
