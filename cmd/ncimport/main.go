// Command ncimport builds a test dataset from register snapshots: it
// imports every VR_Snapshot_*.tsv of the input directory under the chosen
// duplicate-removal mode, optionally computes the plausibility and
// heterogeneity version-similarity maps, publishes the version and persists
// the cluster documents into a document database directory.
//
// Usage:
//
//	ncimport -in snapshots/ -mode trimming -scores -db store/
//	ncimport -in snapshots/ -workers 8 -metrics-addr :9090 -db store/
//
// Re-running against an existing -db directory continues the dataset: new
// snapshots are appended as a new version (the paper's update process,
// Fig. 2). With -workers != 1 each snapshot file runs through the sharded
// parallel ingest pipeline; the result is identical to the sequential
// import. -workers also sizes dirty-cluster and -scores recomputation.
// -store-workers sizes the document store's segmented save/load pool the
// same way (the store bytes and contents are identical at any count).
// -metrics-addr serves GET /metrics (JSON and Prometheus) with the ingest
// and docstore counters while the import runs. -v prints per-stage wall
// times (load, parse+merge per snapshot, score, persist).
//
// -delta switches a continued import onto the incremental path: each
// snapshot is diffed against a fingerprint index of the loaded dataset, only
// clusters whose rows actually changed are touched, -scores recomputes the
// similarity maps only for clusters that gained records, and the store save
// rewrites only segments holding touched clusters (requires -stride, which
// pins the stable segment layout the reuse depends on; the first -delta run
// over a store saved with a different layout falls back to a full rewrite
// and stamps the stride for next time). The result is bit-identical to a
// full reimport — provided the continued store's scores were current, i.e.
// every earlier run of a -scores pipeline also used -scores.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/hetero"
	"repro/internal/obs"
	"repro/internal/plaus"
	"repro/internal/provenance"
	"repro/internal/voter"
)

// stampMeta assembles the provenance metadata of one import run: the mode,
// the full snapshot lineage across all published versions, and the ncgen
// descriptor of the input directory when one is present.
func stampMeta(ds *core.Dataset, in string) provenance.Meta {
	gen, err := provenance.ReadGeneratorInfo(in)
	if err != nil {
		log.Printf("reading %s: %v (continuing without generator metadata)", in, err)
		gen = nil
	}
	return provenance.Meta{
		Source:    "ncimport",
		Mode:      ds.Mode.String(),
		Lineage:   ds.SnapshotLineage(),
		Generator: gen,
	}
}

func parseMode(s string) (core.RemovalMode, error) {
	switch s {
	case "none", "no":
		return core.RemoveNone, nil
	case "exact":
		return core.RemoveExact, nil
	case "trimming", "trimmed":
		return core.RemoveTrimmed, nil
	case "person", "person-data":
		return core.RemovePersonData, nil
	}
	return 0, fmt.Errorf("unknown removal mode %q (none|exact|trimming|person)", s)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ncimport: ")
	var (
		in           = flag.String("in", "snapshots", "directory with VR_Snapshot_*.tsv files")
		modeS        = flag.String("mode", "trimming", "duplicate-removal mode: none|exact|trimming|person")
		db           = flag.String("db", "store", "document-database directory (created or continued)")
		scores       = flag.Bool("scores", false, "compute plausibility and heterogeneity maps")
		workers      = flag.Int("workers", 0, "ingest and score-recomputation workers (0 = all cores, 1 = sequential)")
		storeWorkers = flag.Int("store-workers", 0, "document-store save/load workers (0 = all cores); results are identical at any count")
		metricsAddr  = flag.String("metrics-addr", "", "serve GET /metrics with ingest counters on this address during the import (e.g. :9090)")
		delta        = flag.Bool("delta", false, "incremental import: diff snapshots against the continued store, rescore only dirty clusters, rewrite only dirty segments")
		stride       = flag.Int("stride", 0, "stable segment layout: documents per segment (0 = balanced layout; required > 0 by -delta)")
		verbose      = flag.Bool("v", false, "print per-stage wall times (load, index, parse+merge, plausibility, heterogeneity, persist)")
	)
	flag.Parse()
	if *delta && *stride <= 0 {
		log.Fatal("-delta requires -stride > 0: dirty-segment reuse needs the stable segment layout")
	}

	mode, err := parseMode(*modeS)
	if err != nil {
		log.Fatal(err)
	}
	metrics := obs.NewMetrics()

	// stages accumulates wall time per pipeline stage for -v.
	stages := map[string]time.Duration{}
	var stageOrder []string
	timed := func(name string, f func()) {
		start := time.Now()
		f()
		if _, seen := stages[name]; !seen {
			stageOrder = append(stageOrder, name)
		}
		stages[name] += time.Since(start)
	}

	loadStart := time.Now()
	var ds *core.Dataset
	if _, err := os.Stat(*db); err == nil {
		existing, err := docstore.LoadParallelOpts(*db, docstore.LoadOpts{Workers: *storeWorkers, Observer: metrics})
		if err != nil {
			log.Fatalf("loading %s: %v", *db, err)
		}
		if ds, err = core.FromDocDBParallel(existing, *storeWorkers); err != nil {
			// A fresh directory without dataset metadata: start clean.
			ds = core.NewDataset(mode)
		} else {
			if ds.Mode != mode {
				log.Fatalf("store %s uses mode %q; cannot continue with %q", *db, ds.Mode, mode)
			}
			fmt.Printf("continuing store %s: %d clusters, %d records, version %d\n",
				*db, ds.NumClusters(), ds.NumRecords(), len(ds.Versions()))
		}
	} else {
		ds = core.NewDataset(mode)
	}
	stages["load"] = time.Since(loadStart)
	stageOrder = append(stageOrder, "load")
	if *delta && len(ds.Versions()) == 0 {
		log.Fatalf("-delta continues an existing store, but %s holds no published dataset", *db)
	}

	files, err := voter.ListSnapshotFiles(*in)
	if err != nil {
		log.Fatal(err)
	}
	if len(files) == 0 {
		log.Fatalf("no VR_Snapshot_*.tsv files in %s", *in)
	}
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", metrics.Handler())
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	saveOpts := docstore.SaveOpts{Workers: *storeWorkers, Observer: metrics, Stride: *stride}
	if *delta {
		// Incremental path: classify every row against the fingerprint index
		// of the loaded dataset, touch only changed clusters, and remember
		// which ones changed bytes (segment reuse) or gained records (score
		// recomputation).
		merged := &core.Delta{}
		var ix *core.FingerprintIndex
		timed("index", func() { ix = core.BuildFingerprintIndex(ds) })
		for _, path := range files {
			var dl *core.Delta
			timed("parse+merge", func() {
				var err error
				dl, err = ds.ApplySnapshotDelta(path, core.DeltaOptions{
					Workers: *workers, Observer: metrics, Index: ix,
				})
				if err != nil {
					log.Fatalf("%s: %v", path, err)
				}
			})
			merged.Merge(dl)
			fmt.Printf("applied %s: %d rows (%d unchanged), %d new records, %d clusters touched, %d dirty\n",
				dl.Stats.Snapshot, dl.Stats.Rows, dl.Stats.UnchangedRows,
				dl.Stats.NewRecords, dl.Stats.TouchedClusters, dl.Stats.DirtyClusters)
		}
		if *scores {
			dirty := merged.Dirty()
			fmt.Printf("recomputing scores for %d dirty clusters ...\n", len(dirty))
			timed("plausibility", func() { plaus.UpdateDelta(ds, merged, *workers) })
			timed("heterogeneity", func() { hetero.UpdateDelta(ds, merged, *workers) })
			metrics.AddN("delta_clusters_rescored", int64(len(dirty)))
		}
		version := ds.Publish()
		saveOpts.Dirty = merged.DirtyIDs()
		timed("persist", func() {
			// Save and stamp in one pass: the dirty save reuses unchanged
			// segments, and the provenance record extends the store's hash
			// chain, carrying their digests over.
			if _, err := provenance.Save(ds.ToDocDB(), *db, saveOpts,
				provenance.StampOpts{Meta: stampMeta(ds, *in), Observer: metrics}); err != nil {
				log.Fatal(err)
			}
		})
		printIngestCounters(metrics)
		printStageTimings(*verbose, stageOrder, stages)
		fmt.Printf("published version %d: %d clusters, %d records, %d duplicate pairs -> %s\n",
			version, ds.NumClusters(), ds.NumRecords(), ds.NumPairs(), *db)
		return
	}

	opts := core.IngestOptions{Workers: *workers, Observer: metrics}
	for _, path := range files {
		// Stream the file: register-sized snapshots never materialize.
		// With workers != 1 the sharded pipeline decodes and hashes rows
		// on all cores; the result is identical to the sequential import.
		timed("parse+merge", func() {
			st, err := ds.ImportSnapshotFileParallelOpts(path, opts)
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			fmt.Printf("imported %s: %d rows, %d new records, %d new objects\n",
				st.Snapshot, st.Rows, st.NewRecords, st.NewObjects)
		})
	}
	if *scores {
		fmt.Println("computing plausibility scores ...")
		timed("plausibility", func() { plaus.UpdateParallel(ds, *workers) })
		fmt.Println("computing heterogeneity scores ...")
		timed("heterogeneity", func() { hetero.UpdateParallel(ds, *workers) })
	}
	version := ds.Publish()
	// Segmented parallel save plus a provenance stamp: segment files, a
	// manifest per collection, and a hash-chained record of their digests
	// (`ncstats -verify` re-derives it). The bytes do not depend on the
	// worker count, and older flat stores load unchanged.
	timed("persist", func() {
		if _, err := provenance.Save(ds.ToDocDB(), *db, saveOpts,
			provenance.StampOpts{Meta: stampMeta(ds, *in), Observer: metrics}); err != nil {
			log.Fatal(err)
		}
	})
	printIngestCounters(metrics)
	printStageTimings(*verbose, stageOrder, stages)
	fmt.Printf("published version %d: %d clusters, %d records, %d duplicate pairs -> %s\n",
		version, ds.NumClusters(), ds.NumRecords(), ds.NumPairs(), *db)
}

// printStageTimings reports each pipeline stage's wall time under -v.
func printStageTimings(verbose bool, order []string, stages map[string]time.Duration) {
	if !verbose {
		return
	}
	fmt.Println("stage timings:")
	for _, name := range order {
		fmt.Printf("  %-14s %10.3fs\n", name, stages[name].Seconds())
	}
}

// printIngestCounters summarizes the ingest and docstore counters after the
// import. The sequential ingest path (workers = 1 on a single core) emits
// no ingest counters.
func printIngestCounters(m *obs.Metrics) {
	counters := m.Snapshot().Counters
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Println("pipeline counters:")
	for _, name := range names {
		fmt.Printf("  %-28s %d\n", name, counters[name])
	}
}
