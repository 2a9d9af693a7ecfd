// Package hetero implements the paper's heterogeneity scoring (§6.3): a
// dirtiness measure for duplicate pairs that — unlike plausibility — counts
// every difference, while weighting insignificant differences (case,
// token confusions) lower than real replacements. Every two values are
// compared four times (with and without lowercasing × sequential
// Damerau-Levenshtein and hybrid Monge-Elkan) and averaged; attributes are
// weighted by their entropy computed from one record per cluster so that no
// external domain knowledge biases cross-dataset comparisons.
package hetero

import (
	"strings"

	"repro/internal/core"
	"repro/internal/simil"
	"repro/internal/voter"
)

// ValueSim returns the similarity of two attribute values: the mean of the
// four comparisons described above. Two empty values are identical (1). It
// is ValueSimInto with a fresh Scratch.
func ValueSim(a, b string) float64 {
	var sc simil.Scratch
	return ValueSimInto(a, b, &sc)
}

// ValueSimInto is ValueSim through caller-owned scratch buffers, with the DP
// rows and token slices reused across calls.
//
// Equal values skip the kernels. Every kernel scores two identical strings
// exactly 1 (FuzzStringKernels pins this, the empty string included), so
// a == b returns 1, and values equal after lowercasing add a literal 1 in
// place of each lowercase comparison, in the same summation order. The
// result is bit-identical to running all four comparisons
// (TestValueSimShortcutExact); over duplicate pairs of a voter register
// about three quarters of the compared values are byte-equal.
func ValueSimInto(a, b string, sc *simil.Scratch) float64 {
	if a == b {
		return 1
	}
	la, lb := strings.ToLower(a), strings.ToLower(b)
	caseOnly := la == lb
	s := simil.DamerauLevenshteinSimilarityInto(a, b, sc)
	if caseOnly {
		s++
	} else {
		s += simil.DamerauLevenshteinSimilarityInto(la, lb, sc)
	}
	s += simil.MongeElkanDLInto(a, b, sc)
	if caseOnly {
		s++
	} else {
		s += simil.MongeElkanDLInto(la, lb, sc)
	}
	return s / 4
}

// PairSim returns the weighted mean value similarity of two aligned value
// slices. len(a), len(b) and len(weights) must agree.
func PairSim(a, b []string, weights []float64) float64 {
	if len(a) != len(b) || len(a) != len(weights) {
		panic("hetero: PairSim length mismatch")
	}
	scores := make([]float64, len(a))
	for i := range a {
		scores[i] = ValueSim(a[i], b[i])
	}
	return simil.WeightedAverage(scores, weights)
}

// Heterogeneity is the inverse pair similarity: records are the more
// heterogeneous the less similar they are.
func Heterogeneity(a, b []string, weights []float64) float64 {
	return 1 - PairSim(a, b, weights)
}

// EntropyWeightsFromRows derives normalized attribute weights from rows of
// aligned values: each column's Shannon entropy divided by the total.
func EntropyWeightsFromRows(rows [][]string) []float64 {
	if len(rows) == 0 {
		return nil
	}
	cols := make([][]string, len(rows[0]))
	for c := range cols {
		col := make([]string, len(rows))
		for r := range rows {
			col[r] = rows[r][c]
		}
		cols[c] = col
	}
	return simil.EntropyWeights(cols)
}

// Scorer scores record pairs over a fixed column subset with fixed weights.
// It implements the similarity orientation of core's version-similarity
// maps; the heterogeneity is 1 minus the stored score.
type Scorer struct {
	cols    []int
	weights []float64
}

// NewScorer returns a scorer over the given schema columns and weights
// (typically from DatasetWeights).
func NewScorer(cols []int, weights []float64) *Scorer {
	if len(cols) != len(weights) {
		panic("hetero: NewScorer length mismatch")
	}
	return &Scorer{cols: cols, weights: weights}
}

// extract pulls the scored column values out of a record, trimmed: leading
// and trailing whitespace is a distribution artifact, not dirtiness.
func (s *Scorer) extract(r voter.Record) []string {
	vals := make([]string, len(s.cols))
	for i, c := range s.cols {
		vals[i] = strings.TrimSpace(r.Values[c])
	}
	return vals
}

// PairSim scores one record pair.
func (s *Scorer) PairSim(a, b voter.Record) float64 {
	return PairSim(s.extract(a), s.extract(b), s.weights)
}

// CorePairScorerFactory returns a factory producing one allocation-free
// scorer per worker for core.UpdateScoresParallelFactory: each returned
// PairScorer owns private scratch buffers, so it must not be shared between
// goroutines, and scores equal PairSim's bit for bit. It is the one-kind
// case of the scorer UpdateParallel runs.
func (s *Scorer) CorePairScorerFactory() func() core.PairScorer {
	vs := &vectorScorer{cols: s.cols, kinds: []kindWeights{{pos: positions(s.cols, s.cols), weights: s.weights}}}
	return func() core.PairScorer {
		score := vs.newScorer()
		out := make([]float64, 1)
		return func(a, b voter.Record) float64 {
			score(a, b, out)
			return out[0]
		}
	}
}

// vectorScorer scores a record pair as one ValueSim vector over cols and
// folds that vector into one weighted average per score kind.
type vectorScorer struct {
	cols  []int
	kinds []kindWeights
}

// kindWeights selects one kind's columns from the vector, as positions into
// vectorScorer.cols in the kind's own column order, with their weights.
type kindWeights struct {
	pos     []int
	weights []float64
}

// positions returns the position in cols of each column of sub.
func positions(cols, sub []int) []int {
	at := make(map[int]int, len(cols))
	for i, c := range cols {
		if _, dup := at[c]; !dup {
			at[c] = i
		}
	}
	pos := make([]int, len(sub))
	for i, c := range sub {
		p, ok := at[c]
		if !ok {
			panic("hetero: column outside the scored set")
		}
		pos[i] = p
	}
	return pos
}

// newScorer returns one worker's allocation-free core.KindsScorer. Each
// kind's average is simil.WeightedAverage over its columns in its own
// order, as a per-kind Scorer would compute it, so every score equals that
// Scorer's PairSim bit for bit.
func (v *vectorScorer) newScorer() core.KindsScorer {
	var sc simil.Scratch
	sims := make([]float64, len(v.cols))
	sub := make([]float64, len(v.cols))
	return func(a, b voter.Record, out []float64) {
		for i, c := range v.cols {
			sims[i] = ValueSimInto(strings.TrimSpace(a.Values[c]), strings.TrimSpace(b.Values[c]), &sc)
		}
		for k, kw := range v.kinds {
			scores := sub[:len(kw.pos)]
			for i, p := range kw.pos {
				scores[i] = sims[p]
			}
			out[k] = simil.WeightedAverage(scores, kw.weights)
		}
	}
}

// DatasetWeights computes the entropy weights of the given schema columns
// from one record per cluster of the dataset — duplicates would distort the
// uniqueness estimate (an otherwise unique id occurs multiple times), so
// only cluster representatives contribute (§6.3).
func DatasetWeights(d *core.Dataset, cols []int) []float64 {
	if d.NumClusters() == 0 {
		return nil
	}
	return simil.NormalizeWeights(columnEntropies(d, cols))
}

// columnEntropies returns the Shannon entropy of each given schema column
// over one trimmed record per cluster: DatasetWeights before normalization.
func columnEntropies(d *core.Dataset, cols []int) []float64 {
	columns := make([][]string, len(cols))
	d.Clusters(func(c *core.Cluster) bool {
		r := c.Records[0].Rec
		for i, ci := range cols {
			columns[i] = append(columns[i], strings.TrimSpace(r.Values[ci]))
		}
		return true
	})
	entropies := make([]float64, len(cols))
	for i, col := range columns {
		entropies[i] = simil.Entropy(col)
	}
	return entropies
}

// AllColumns returns the schema columns scored by the all-attribute
// heterogeneity (everything except the gold-standard NCID, which must never
// influence a dirtiness measure).
func AllColumns() []int {
	var cols []int
	for i := range voter.Attributes {
		if i == voter.IdxNCID {
			continue
		}
		cols = append(cols, i)
	}
	return cols
}

// PersonColumns returns the person-group columns (the paper's second
// heterogeneity map, used by the NC1-NC3 customization).
func PersonColumns() []int {
	return voter.GroupIndices(voter.GroupPerson)
}

// Update computes (incrementally) both heterogeneity version-similarity maps
// of the dataset, deriving fresh entropy weights from the current cluster
// representatives.
func Update(d *core.Dataset) {
	UpdateParallel(d, 1)
}

// UpdateParallel is Update over a worker pool (workers <= 0 selects
// GOMAXPROCS); the result is identical. Each worker gets its own
// allocation-free scorer with private scratch buffers, so the hot path
// performs no per-pair allocations.
func UpdateParallel(d *core.Dataset, workers int) {
	updateOn(d, workers, nil)
}

// UpdateDelta scores only the clusters a delta apply marked dirty
// (dl.Dirty()). The entropy weights are derived from the grown dataset's
// cluster representatives — exactly the weights a full UpdateParallel would
// use at this point — and already-scored pairs are never revisited, so
// delta-scoring after each apply matches full scoring bit for bit as long
// as scores were current before the delta.
func UpdateDelta(d *core.Dataset, dl *core.Delta, workers int) {
	updateOn(d, workers, dl.Dirty())
}

// heteroKinds are the maps updateOn fills, in the scorer's output order.
var heteroKinds = []string{core.KindHeteroAll, core.KindHeteroPerson}

// updateOn scores both heterogeneity maps of the given clusters (nil: all)
// in one pass: each pair gets one ValueSim vector over AllColumns, averaged
// once with the all-column weights and once over the PersonColumns subset
// with the person weights. The column entropies are computed once and
// normalized per kind, which gives exactly DatasetWeights of each subset.
func updateOn(d *core.Dataset, workers int, ncids []string) {
	all := AllColumns()
	entropies := columnEntropies(d, all)
	allPos, personPos := positions(all, all), positions(all, PersonColumns())
	personEnt := make([]float64, len(personPos))
	for i, p := range personPos {
		personEnt[i] = entropies[p]
	}
	vs := &vectorScorer{cols: all, kinds: []kindWeights{
		{pos: allPos, weights: simil.NormalizeWeights(entropies)},
		{pos: personPos, weights: simil.NormalizeWeights(personEnt)},
	}}
	d.UpdateScoresKinds(heteroKinds, vs.newScorer, workers, ncids)
}

// ClusterHeterogeneity returns the per-cluster heterogeneity (1 - mean pair
// similarity) of the given kind for clusters with at least two records.
func ClusterHeterogeneity(d *core.Dataset, kind string) []float64 {
	sims := d.ClusterScores(kind, core.AggMean)
	out := make([]float64, len(sims))
	for i, s := range sims {
		out[i] = core.HeteroFromSim(s)
	}
	return out
}

// PairHeterogeneities streams every stored pair heterogeneity of a kind.
func PairHeterogeneities(d *core.Dataset, kind string) []float64 {
	var out []float64
	d.PairScores(kind, func(_ *core.Cluster, _, _ int, sim float64) bool {
		out = append(out, core.HeteroFromSim(sim))
		return true
	})
	return out
}
