package hetero

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/simil"
	"repro/internal/synth"
	"repro/internal/voter"
)

// The two-pass heterogeneity scoring that the one-pass scorer replaced,
// kept as the reference of the differential tests below: every comparison
// runs all four kernels, and each map is scored in its own pass with its own
// per-kind scorer and its own DatasetWeights.

// refValueSimInto is ValueSimInto without the equal-value shortcut.
func refValueSimInto(a, b string, sc *simil.Scratch) float64 {
	la, lb := strings.ToLower(a), strings.ToLower(b)
	s := simil.DamerauLevenshteinSimilarityInto(a, b, sc)
	s += simil.DamerauLevenshteinSimilarityInto(la, lb, sc)
	s += simil.MongeElkanDLInto(a, b, sc)
	s += simil.MongeElkanDLInto(la, lb, sc)
	return s / 4
}

// refDatasetWeights is DatasetWeights as it was: rows of trimmed cluster
// representatives through EntropyWeightsFromRows.
func refDatasetWeights(d *core.Dataset, cols []int) []float64 {
	var rows [][]string
	d.Clusters(func(c *core.Cluster) bool {
		r := c.Records[0].Rec
		vals := make([]string, len(cols))
		for i, ci := range cols {
			vals[i] = strings.TrimSpace(r.Values[ci])
		}
		rows = append(rows, vals)
		return true
	})
	return EntropyWeightsFromRows(rows)
}

// refScorerFactory is one kind's allocation-free scorer of the two-pass
// path: extract the trimmed values, score each column, average.
func refScorerFactory(cols []int, weights []float64) func() core.PairScorer {
	return func() core.PairScorer {
		var sc simil.Scratch
		va := make([]string, len(cols))
		vb := make([]string, len(cols))
		scores := make([]float64, len(cols))
		return func(a, b voter.Record) float64 {
			for i, c := range cols {
				va[i] = strings.TrimSpace(a.Values[c])
				vb[i] = strings.TrimSpace(b.Values[c])
			}
			for i := range va {
				scores[i] = refValueSimInto(va[i], vb[i], &sc)
			}
			return simil.WeightedAverage(scores, weights)
		}
	}
}

// refUpdateKind scores one heterogeneity map in its own sequential pass.
func refUpdateKind(d *core.Dataset, kind string) {
	cols := AllColumns()
	if kind == core.KindHeteroPerson {
		cols = PersonColumns()
	}
	d.UpdateScores(kind, refScorerFactory(cols, refDatasetWeights(d, cols))())
}

// refUpdate is the two-pass Update.
func refUpdate(d *core.Dataset) {
	refUpdateKind(d, core.KindHeteroAll)
	refUpdateKind(d, core.KindHeteroPerson)
}

// scoreBits maps every stored pair score of both heterogeneity maps to its
// bit pattern, keyed by kind, cluster and pair.
func scoreBits(d *core.Dataset) map[string]uint64 {
	out := map[string]uint64{}
	for _, kind := range heteroKinds {
		d.PairScores(kind, func(c *core.Cluster, i, j int, sim float64) bool {
			out[fmt.Sprintf("%s/%s/%d/%d", kind, c.NCID, i, j)] = math.Float64bits(sim)
			return true
		})
	}
	return out
}

func requireSameBits(t *testing.T, label string, want, got *core.Dataset) {
	t.Helper()
	w, g := scoreBits(want), scoreBits(got)
	if !reflect.DeepEqual(w, g) {
		for k, wb := range w {
			if gb, ok := g[k]; !ok || gb != wb {
				t.Fatalf("%s: %s = %v (present=%v), reference %v", label, k,
					math.Float64frombits(gb), ok, math.Float64frombits(wb))
			}
		}
		t.Fatalf("%s: %d scores, reference %d", label, len(g), len(w))
	}
}

// heteroFixture writes a small seeded register with heavy entry errors as
// TSV snapshot files: clusters grow over the snapshots, so every file adds
// new pairs to score.
func heteroFixture(t *testing.T, snapshots int) []string {
	t.Helper()
	cfg := synth.DefaultConfig(17, 60)
	cfg.Snapshots = synth.Calendar(2008, snapshots)[:snapshots]
	cfg.ReRegisterRate = 0.5
	cfg.MoveRate = 0.15
	cfg.Errors = corrupt.Heavy()
	paths, err := synth.WriteAll(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func importAll(t *testing.T, d *core.Dataset, paths []string) {
	t.Helper()
	for _, p := range paths {
		if _, err := d.ImportSnapshotFile(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelScoreHeteroOnePassMatchesTwoPass pins the one-pass scorer of
// UpdateParallel and UpdateDelta to the two-pass reference bit for bit: a
// full import, a delta sequence, and a dataset whose two maps start out
// scored through different record indices, over the worker ladder
// {1, 2, 7, GOMAXPROCS}.
func TestParallelScoreHeteroOnePassMatchesTwoPass(t *testing.T) {
	paths := heteroFixture(t, 4)
	ladder := []int{1, 2, 7, runtime.GOMAXPROCS(0)}

	full := core.NewDataset(core.RemoveTrimmed)
	importAll(t, full, paths)
	refUpdate(full)
	if len(scoreBits(full)) == 0 {
		t.Fatal("reference stored no scores — fixture too small")
	}
	for _, w := range ladder {
		d := core.NewDataset(core.RemoveTrimmed)
		importAll(t, d, paths)
		UpdateParallel(d, w)
		requireSameBits(t, fmt.Sprintf("full/workers=%d", w), full, d)
	}

	for _, w := range ladder {
		ref := core.NewDataset(core.RemoveTrimmed)
		inc := core.NewDataset(core.RemoveTrimmed)
		for step, p := range paths {
			importAll(t, ref, []string{p})
			refUpdate(ref)
			dl, err := inc.ApplySnapshotDelta(p, core.DeltaOptions{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			UpdateDelta(inc, dl, w)
			requireSameBits(t, fmt.Sprintf("delta/workers=%d/step=%d", w, step), ref, inc)
		}
	}

	// Score both maps after two snapshots, only the person map after the
	// third, then everything after the fourth: clusters that grew in the
	// third snapshot enter the one-pass update with the all-column map
	// scored through fewer records than the person map.
	staggered := func(update func(d *core.Dataset)) *core.Dataset {
		d := core.NewDataset(core.RemoveTrimmed)
		importAll(t, d, paths[:2])
		refUpdate(d)
		importAll(t, d, paths[2:3])
		refUpdateKind(d, core.KindHeteroPerson)
		importAll(t, d, paths[3:])
		update(d)
		return d
	}
	ref := staggered(refUpdate)
	probe := staggered(func(*core.Dataset) {})
	mixed := 0
	probe.Clusters(func(c *core.Cluster) bool {
		all, person := countPairs(probe, c, core.KindHeteroAll), countPairs(probe, c, core.KindHeteroPerson)
		if all > 0 && all < person {
			mixed++
		}
		return true
	})
	if mixed == 0 {
		t.Fatal("fixture has no cluster whose maps are scored through different records")
	}
	for _, w := range ladder {
		d := staggered(func(d *core.Dataset) { UpdateParallel(d, w) })
		requireSameBits(t, fmt.Sprintf("staggered/workers=%d", w), ref, d)
	}
}

// countPairs counts the stored pair scores of one kind in a cluster.
func countPairs(d *core.Dataset, c *core.Cluster, kind string) int {
	n := 0
	for i := 1; i < len(c.Records); i++ {
		for j := 0; j < i; j++ {
			if _, ok := c.PairScore(kind, i, j); ok {
				n++
			}
		}
	}
	return n
}

// TestValueSimShortcutExact proves the equal-value shortcut exact: on every
// pair drawn from a hostile value list, ValueSimInto and ValueSim equal the
// unshortened four-kernel mean bit for bit. Pairs are (a, a), (a, upper(a))
// both ways, and every cross pair.
func TestValueSimShortcutExact(t *testing.T) {
	hostile := []string{
		"", " ", "\t \n", ".", "-'.,", "...",
		"SMITH", "smith", "Smith", "McDonald", "O'BRIEN", "o'brien", "ANH THI", "anh thi",
		"İ", "i̇", "İSTANBUL", "ẞ", "ß", "STRAßE", "Ⱥ", "ⱥ", "K", "k", "ΣΊΣΥΦΟΣ", "σίσυφος",
		"山田", "日本語テスト", "a\x80b", "A\xffB", "\xff", "\xc3",
		strings.Repeat("Ab", 33), strings.Repeat("aB ", 30), strings.Repeat("İx", 40),
	}
	var sc, ref simil.Scratch
	var equal, foldEqual int
	check := func(a, b string) {
		want := refValueSimInto(a, b, &ref)
		if got := ValueSimInto(a, b, &sc); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ValueSimInto(%q, %q) = %v, full computation %v", a, b, got, want)
		}
		if got := ValueSim(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ValueSim(%q, %q) = %v, full computation %v", a, b, got, want)
		}
		switch {
		case a == b:
			equal++
		case strings.ToLower(a) == strings.ToLower(b):
			foldEqual++
		}
	}
	for _, a := range hostile {
		check(a, a)
		check(a, strings.ToUpper(a))
		check(strings.ToUpper(a), a)
		for _, b := range hostile {
			check(a, b)
		}
	}
	if equal == 0 || foldEqual == 0 {
		t.Fatalf("shortcut branches not exercised: %d equal, %d equal after lowercasing", equal, foldEqual)
	}
}
