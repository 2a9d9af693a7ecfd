package core

import (
	"runtime"
	"sync"

	"repro/internal/voter"
)

// UpdateScoresParallel is UpdateScores with the per-cluster work spread over
// a worker pool. Clusters are independent — each owns its version-similarity
// map — so the only coordination is the work queue. workers <= 0 selects
// GOMAXPROCS. The result is identical to the sequential UpdateScores.
//
// The scorer is shared by all workers; it must be safe for concurrent use.
// Scorers that carry per-call scratch state (the allocation-free
// plausibility and heterogeneity scorers) go through
// UpdateScoresParallelFactory instead.
func (d *Dataset) UpdateScoresParallel(kind string, scorer PairScorer, workers int) {
	d.UpdateScoresParallelFactory(kind, func() PairScorer { return scorer }, workers)
}

// UpdateScoresParallelFactory is UpdateScoresParallel with one scorer
// instance per worker: the factory runs once on each worker goroutine, so a
// scorer may own mutable scratch buffers (DP rows, value slices) without
// any locking. Cluster results are written only into that cluster's own
// similarity map, so for deterministic scorers the outcome is identical to
// sequential for any worker count.
func (d *Dataset) UpdateScoresParallelFactory(kind string, factory func() PairScorer, workers int) {
	d.UpdateScoresParallelFactoryOn(kind, factory, workers, nil)
}

// UpdateScoresParallelFactoryOn is UpdateScoresParallelFactory restricted to
// the given NCIDs (Delta.Dirty's rescoring scope): nil means every cluster,
// an empty non-nil slice means none, unknown NCIDs are ignored. It is the
// one-kind case of UpdateScoresKinds.
func (d *Dataset) UpdateScoresParallelFactoryOn(kind string, factory func() PairScorer, workers int, ncids []string) {
	d.UpdateScoresKinds([]string{kind}, func() KindsScorer {
		scorer := factory()
		return func(a, b voter.Record, out []float64) { out[0] = scorer(a, b) }
	}, workers, ncids)
}

// UpdateScoresKinds is the scoring engine behind every Update* method: it
// computes the missing pairs of several version-similarity maps in one pass
// over the given NCIDs (nil means every cluster, an empty non-nil slice
// none, unknown NCIDs are ignored). Each kind keeps its own scoredThrough,
// so a pair is stored only under the kinds that lack it; the scorer still
// computes every kind for such a pair, and the surplus scores are dropped.
//
// The factory runs once per worker, so a scorer may own scratch buffers.
// workers <= 0 selects GOMAXPROCS; workers == 1 scores on the calling
// goroutine. Cluster results are written only into that cluster's own maps,
// so for deterministic scorers the outcome is identical for any worker
// count.
func (d *Dataset) UpdateScoresKinds(kinds []string, factory func() KindsScorer, workers int, ncids []string) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if ncids == nil {
		ncids = d.order
	}
	if workers == 1 {
		w := newKindsWorker(kinds, factory())
		for _, id := range ncids {
			if c := d.clusters[id]; c != nil {
				w.scoreCluster(c)
			}
		}
		return
	}
	jobs := make(chan *Cluster, workers*2)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newKindsWorker(kinds, factory())
			for c := range jobs {
				w.scoreCluster(c)
			}
		}()
	}
	for _, id := range ncids {
		if c := d.clusters[id]; c != nil {
			jobs <- c
		}
	}
	close(jobs)
	wg.Wait()
}

// kindsWorker is one worker's scorer plus its per-kind bookkeeping, reused
// across clusters.
type kindsWorker struct {
	kinds []string
	score KindsScorer
	out   []float64
	maps  []VersionSimMap
	from  []int
	rows  []map[int]float64
}

func newKindsWorker(kinds []string, score KindsScorer) *kindsWorker {
	n := len(kinds)
	return &kindsWorker{
		kinds: kinds, score: score, out: make([]float64, n),
		maps: make([]VersionSimMap, n), from: make([]int, n), rows: make([]map[int]float64, n),
	}
}

// scoreCluster computes the pairs of one cluster missing from any of the
// worker's kinds: record i against every j < i, for each i at or past the
// smallest per-kind scoredThrough.
func (w *kindsWorker) scoreCluster(c *Cluster) {
	lo := len(c.Records)
	for k, kind := range w.kinds {
		vm := c.SimMaps[kind]
		if vm == nil {
			vm = VersionSimMap{}
			c.SimMaps[kind] = vm
		}
		w.maps[k] = vm
		w.from[k] = c.scoredThrough(kind)
		if w.from[k] < lo {
			lo = w.from[k]
		}
	}
	for i := max(lo, 1); i < len(c.Records); i++ {
		version := c.Records[i].FirstVersion
		for k, vm := range w.maps {
			if i < w.from[k] {
				w.rows[k] = nil
				continue
			}
			byI := vm[version]
			if byI == nil {
				byI = map[int]map[int]float64{}
				vm[version] = byI
			}
			w.rows[k] = make(map[int]float64, i)
			byI[i] = w.rows[k]
		}
		for j := 0; j < i; j++ {
			w.score(c.Records[i].Rec, c.Records[j].Rec, w.out)
			for k, row := range w.rows {
				if row != nil {
					row[j] = w.out[k]
				}
			}
		}
	}
}
