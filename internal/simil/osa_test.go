package simil

import (
	"strings"
	"testing"
)

// osaRef is the DP reference distance, with the empty-input cases the
// dispatcher handles before either kernel runs.
func osaRef(a, b []rune, sc *Scratch) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	return damerauLevenshteinDP(a, b, sc)
}

// checkOSAKernel compares the bit-parallel kernel with the DP on both
// argument orders. A pattern longer than 64 runes is cut to its first 64 so
// the kernel runs on every input; the public distance must equal the DP's
// whichever kernel the dispatcher picks.
func checkOSAKernel(t *testing.T, a, b string) {
	t.Helper()
	var sc, ref Scratch
	ra, rb := []rune(a), []rune(b)
	for _, pair := range [][2][]rune{{ra, rb}, {rb, ra}} {
		p, txt := pair[0], pair[1]
		if len(p) > osaMaxPattern {
			p = p[:osaMaxPattern]
		}
		if len(p) == 0 {
			continue
		}
		want := osaRef(p, txt, &ref)
		if got := osaBitParallel(p, txt, &sc); got != want {
			t.Fatalf("osaBitParallel(%q, %q) = %d, DP = %d", string(p), string(txt), got, want)
		}
		if rev := osaRef(txt, p, &ref); rev != want {
			t.Fatalf("DP not symmetric on (%q, %q): %d vs %d", string(p), string(txt), want, rev)
		}
	}
	if sc.peq != nil && *sc.peq != [128]uint64{} {
		t.Fatalf("match-mask table not cleared after (%q, %q)", a, b)
	}
	want := osaRef(ra, rb, &ref)
	if got := DamerauLevenshtein(a, b); got != want {
		t.Fatalf("DamerauLevenshtein(%q, %q) = %d, DP = %d", a, b, got, want)
	}
	if got := DamerauLevenshtein(b, a); got != want {
		t.Fatalf("DamerauLevenshtein(%q, %q) = %d, DP = %d", b, a, got, want)
	}
}

// FuzzOSAKernel pins the bit-parallel OSA kernel to the DP it replaces for
// patterns of up to 64 runes. The checked-in seeds (testdata/fuzz) cover the
// 63/64/65-rune word boundary, non-ASCII runes the match-mask table does not
// hold, invalid UTF-8 and empty strings.
func FuzzOSAKernel(f *testing.F) {
	f.Add("CA", "ABC")
	f.Add("MCDOWELL", "MCDOWLEL")
	f.Add("ßtraße", "STRASSE")
	f.Add("a\x80b", "a\xffb")
	f.Fuzz(checkOSAKernel)
}

func TestOSAKernelKnown(t *testing.T) {
	long := strings.Repeat("AB", 40)
	for _, c := range []struct {
		a, b string
		want int
	}{
		{"CA", "ABC", 3}, // OSA, not unrestricted Damerau (2)
		{"AB", "BA", 1},
		{"ABCD", "BADC", 2},
		{"MCDOWELL", "MCDOWLEL", 1},
		{"İSTANBUL", "ISTANBUL", 1},
		{"日本語", "日語本", 1},
		{"a\x80b", "a\xffb", 0}, // both invalid bytes decode to U+FFFD
		{long, long[1:] + "A", 2},
		{strings.Repeat("X", 64), strings.Repeat("X", 65), 1},
		{strings.Repeat("X", 65), strings.Repeat("Y", 65), 65},
	} {
		if got := DamerauLevenshtein(c.a, c.b); got != c.want {
			t.Errorf("DamerauLevenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
		checkOSAKernel(t, c.a, c.b)
	}
}

func BenchmarkOSABitParallel(b *testing.B) {
	var sc Scratch
	p, txt := []rune("CHRISTOPHER"), []rune("KRISTOFFER")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		osaBitParallel(p, txt, &sc)
	}
}

func BenchmarkOSADP(b *testing.B) {
	var sc Scratch
	p, txt := []rune("CHRISTOPHER"), []rune("KRISTOFFER")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		damerauLevenshteinDP(p, txt, &sc)
	}
}
