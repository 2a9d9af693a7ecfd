package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/voter"
)

// buildScoredInput creates a dataset with many multi-record clusters.
func buildScoredInput(n int) *Dataset {
	d := NewDataset(RemoveTrimmed)
	var recs []voter.Record
	for c := 0; c < n; c++ {
		for v := 0; v < 3; v++ {
			r := voter.NewRecord()
			r.SetName("ncid", fmt.Sprintf("C%05d", c))
			r.SetName("first_name", fmt.Sprintf("NAME%d", c))
			r.SetName("last_name", fmt.Sprintf("LAST%d-%d", c, v))
			recs = append(recs, r)
		}
	}
	d.ImportSnapshot(voter.Snapshot{Date: "2008-01-01", Records: recs})
	return d
}

func TestParallelMatchesSequential(t *testing.T) {
	scorer := func(a, b voter.Record) float64 {
		if a.GetName("last_name") == b.GetName("last_name") {
			return 1
		}
		return 0.5
	}
	seq := buildScoredInput(200)
	seq.UpdateScores("k", scorer)
	par := buildScoredInput(200)
	par.UpdateScoresParallel("k", scorer, 8)

	if seq.NumClusters() != par.NumClusters() {
		t.Fatal("cluster counts differ")
	}
	for _, id := range seq.NCIDs() {
		a, b := seq.Cluster(id), par.Cluster(id)
		for i := 1; i < len(a.Records); i++ {
			for j := 0; j < i; j++ {
				sa, oka := a.PairScore("k", i, j)
				sb, okb := b.PairScore("k", i, j)
				if oka != okb || sa != sb {
					t.Fatalf("cluster %s pair (%d,%d): %v/%v vs %v/%v", id, i, j, sa, oka, sb, okb)
				}
			}
		}
	}
}

func TestParallelSingleWorkerFallsBack(t *testing.T) {
	d := buildScoredInput(10)
	d.UpdateScoresParallel("k", func(a, b voter.Record) float64 { return 0.7 }, 1)
	if s, ok := d.Cluster("C00000").PairScore("k", 1, 0); !ok || s != 0.7 {
		t.Errorf("score = %v, %v", s, ok)
	}
}

func TestParallelIncrementalAcrossVersions(t *testing.T) {
	d := buildScoredInput(50)
	d.UpdateScoresParallel("k", func(a, b voter.Record) float64 { return 1 }, 4)
	d.Publish()
	// Second round with a contradicting scorer: old pairs must keep their
	// stored value.
	var recs []voter.Record
	for c := 0; c < 50; c++ {
		r := voter.NewRecord()
		r.SetName("ncid", fmt.Sprintf("C%05d", c))
		r.SetName("first_name", "NEW")
		r.SetName("last_name", fmt.Sprintf("NEW%d", c))
		recs = append(recs, r)
	}
	d.ImportSnapshot(voter.Snapshot{Date: "2009-01-01", Records: recs})
	d.UpdateScoresParallel("k", func(a, b voter.Record) float64 { return 0.25 }, 4)
	d.Publish()

	c := d.Cluster("C00000")
	if s, _ := c.PairScore("k", 1, 0); s != 1 {
		t.Errorf("old pair recomputed: %v", s)
	}
	if s, _ := c.PairScore("k", 3, 0); s != 0.25 {
		t.Errorf("new pair = %v", s)
	}
}

// refScoreCluster is the single-kind cluster scorer that UpdateScoresKinds
// replaced, kept as the reference of its differential test.
func refScoreCluster(c *Cluster, kind string, scorer PairScorer) {
	vm := c.SimMaps[kind]
	if vm == nil {
		vm = VersionSimMap{}
		c.SimMaps[kind] = vm
	}
	from := c.scoredThrough(kind)
	for i := from; i < len(c.Records); i++ {
		if i == 0 {
			continue
		}
		version := c.Records[i].FirstVersion
		byI := vm[version]
		if byI == nil {
			byI = map[int]map[int]float64{}
			vm[version] = byI
		}
		row := map[int]float64{}
		for j := 0; j < i; j++ {
			row[j] = scorer(c.Records[i].Rec, c.Records[j].Rec)
		}
		byI[i] = row
	}
}

// TestParallelScoreKindsMatchesPerKind pins the multi-kind engine to one
// reference pass per kind over the worker ladder {1, 2, 7, GOMAXPROCS},
// on snapshots that add records between updates and with the two kinds
// scored through different record indices before the last update.
func TestParallelScoreKindsMatchesPerKind(t *testing.T) {
	paths := writeSnapshotFiles(t, 23, 80, 4)
	last := func(a, b voter.Record) float64 {
		if a.Values[voter.IdxLastName] == b.Values[voter.IdxLastName] {
			return 1
		}
		return 0.25
	}
	first := func(a, b voter.Record) float64 {
		return float64(len(a.Values[voter.IdxFirstName])%7+len(b.Values[voter.IdxFirstName])%5) / 12
	}
	kinds := []string{"k_last", "k_first"}
	both := func() KindsScorer {
		return func(a, b voter.Record, out []float64) { out[0], out[1] = last(a, b), first(a, b) }
	}
	// run imports the first n files and scores both kinds after the second
	// and fourth file, the first kind alone after the third.
	run := func(n int, update func(d *Dataset)) *Dataset {
		d := NewDataset(RemoveTrimmed)
		for i, p := range paths[:n] {
			if _, err := d.ImportSnapshotFile(p); err != nil {
				t.Fatal(err)
			}
			switch i {
			case 1, 3:
				update(d)
			case 2:
				for _, c := range d.clusters {
					refScoreCluster(c, kinds[0], last)
				}
			}
		}
		return d
	}
	ref := func(d *Dataset) {
		for _, id := range d.order {
			refScoreCluster(d.clusters[id], kinds[0], last)
			refScoreCluster(d.clusters[id], kinds[1], first)
		}
	}
	mixed := 0
	for _, c := range run(3, ref).clusters {
		if from := c.scoredThrough(kinds[1]); from > 1 && from < c.scoredThrough(kinds[0]) {
			mixed++
		}
	}
	if mixed == 0 {
		t.Fatal("fixture has no cluster whose kinds are scored through different records")
	}
	want := run(len(paths), ref)
	for _, w := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		got := run(len(paths), func(d *Dataset) { d.UpdateScoresKinds(kinds, both, w, nil) })
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: multi-kind scoring diverged from per-kind scoring", w)
		}
	}
}

func BenchmarkUpdateScoresSequential(b *testing.B) {
	scorer := func(a, b voter.Record) float64 { return 0.5 }
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := buildScoredInput(500)
		b.StartTimer()
		d.UpdateScores("k", scorer)
	}
}

func BenchmarkUpdateScoresParallel(b *testing.B) {
	scorer := func(a, b voter.Record) float64 { return 0.5 }
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := buildScoredInput(500)
		b.StartTimer()
		d.UpdateScoresParallel("k", scorer, 0)
	}
}
