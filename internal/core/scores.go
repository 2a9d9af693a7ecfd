package core

import "repro/internal/voter"

// PairScorer scores two records of the same cluster in [0, 1]. The
// plausibility and heterogeneity packages provide the concrete scorers; core
// only orchestrates when pairs are (incrementally) scored and where the
// results live.
type PairScorer func(a, b voter.Record) float64

// Aggregation folds a cluster's pair scores into one cluster score.
type Aggregation int

const (
	// AggMin: a cluster is only as sound as its worst pair (plausibility,
	// §6.2).
	AggMin Aggregation = iota
	// AggMean: cluster heterogeneity is the average pair heterogeneity
	// (§6.3).
	AggMean
)

// KindsScorer scores two records of the same cluster under several score
// kinds at once, writing out[k] for the k-th kind of the UpdateScoresKinds
// call. One call can share work between kinds — both heterogeneity maps
// are weighted averages of one per-column similarity vector.
type KindsScorer func(a, b voter.Record, out []float64)

// UpdateScores incrementally computes the version-similarity map of the
// given kind (Fig. 2, step 2): for every record not yet scored it computes
// the similarity to all previously existing records of the same cluster and
// stores them under the record's first version. Already-scored pairs are
// never recomputed — the record order inside a cluster never changes
// (§5.2).
func (d *Dataset) UpdateScores(kind string, scorer PairScorer) {
	d.UpdateScoresOn(kind, scorer, nil)
}

// UpdateScoresOn is UpdateScores restricted to the given NCIDs — the delta
// path's rescoring scope (Delta.Dirty). A nil slice means every cluster; an
// empty non-nil slice means none. NCIDs without a cluster are ignored.
// Because scoreCluster only ever computes missing pairs, scoring a subset
// now and the rest later yields the same maps as scoring everything at once.
func (d *Dataset) UpdateScoresOn(kind string, scorer PairScorer, ncids []string) {
	d.UpdateScoresParallelFactoryOn(kind, func() PairScorer { return scorer }, 1, ncids)
}

// scoredThrough returns the first record index of the cluster that has no
// stored scores for the kind yet.
func (c *Cluster) scoredThrough(kind string) int {
	vm := c.SimMaps[kind]
	if vm == nil {
		return 0
	}
	max := 0
	for _, byI := range vm {
		for i := range byI {
			if i+1 > max {
				max = i + 1
			}
		}
	}
	if max == 0 {
		// Only record 0 may have been seen; treat a non-empty map as
		// everything-unscored-from-1.
		if len(c.Records) > 0 {
			return 1
		}
	}
	return max
}

// PairScore returns the stored score of records i > j of the cluster and
// whether it exists.
func (c *Cluster) PairScore(kind string, i, j int) (float64, bool) {
	if i < j {
		i, j = j, i
	}
	vm := c.SimMaps[kind]
	if vm == nil {
		return 0, false
	}
	for _, byI := range vm {
		if row, ok := byI[i]; ok {
			if s, ok := row[j]; ok {
				return s, true
			}
		}
	}
	return 0, false
}

// ClusterScore folds the cluster's stored pair scores of a kind into one
// value. Clusters with fewer than two records (no pairs) return ok=false.
func (c *Cluster) ClusterScore(kind string, agg Aggregation) (float64, bool) {
	n := len(c.Records)
	if n < 2 {
		return 0, false
	}
	var sum float64
	count := 0
	min := 1.0
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			s, ok := c.PairScore(kind, i, j)
			if !ok {
				continue
			}
			sum += s
			count++
			if s < min {
				min = s
			}
		}
	}
	if count == 0 {
		return 0, false
	}
	if agg == AggMin {
		return min, true
	}
	return sum / float64(count), true
}

// PairScores streams every stored pair score of a kind across the dataset.
func (d *Dataset) PairScores(kind string, fn func(c *Cluster, i, j int, score float64) bool) {
	for _, id := range d.order {
		c := d.clusters[id]
		n := len(c.Records)
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if s, ok := c.PairScore(kind, i, j); ok {
					if !fn(c, i, j, s) {
						return
					}
				}
			}
		}
	}
}

// ClusterScores returns the per-cluster aggregate of a kind for all clusters
// with at least one scored pair, in first-seen order.
func (d *Dataset) ClusterScores(kind string, agg Aggregation) []float64 {
	var out []float64
	for _, id := range d.order {
		if s, ok := d.clusters[id].ClusterScore(kind, agg); ok {
			out = append(out, s)
		}
	}
	return out
}

// Established score kinds. Plausibility stores similarities (1 = surely the
// same voter); the two heterogeneity kinds store similarities as well — the
// heterogeneity is their inverse, taken at read time — so that all three
// maps share the "similarity map" semantics of §5.2.
const (
	KindPlausibility = "plausibility"
	KindHeteroAll    = "heterogeneity_all"
	KindHeteroPerson = "heterogeneity_person"
)

// HeteroFromSim converts a stored similarity into a heterogeneity score.
func HeteroFromSim(sim float64) float64 { return 1 - sim }
