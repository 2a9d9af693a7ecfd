package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/custom"
	"repro/internal/dedup"
	"repro/internal/docstore"
	"repro/internal/hetero"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/plaus"
	"repro/internal/provenance"
	"repro/internal/voter"
)

// span is one traced call: its name, start, end and the span that caused
// it, with the process CPU and heap bytes allocated while it ran.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0: a root span
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	CPU    time.Duration      `json:"cpu_ns"`
	Steal  time.Duration      `json:"steal_ns"` // host steal during the span, all CPUs
	Alloc  uint64             `json:"alloc_bytes"`
	Counts map[string]float64 `json:"counts,omitempty"`

	cpu0, steal0 time.Duration
	alloc0       uint64
}

func (s *span) wall() time.Duration { return s.End - s.Start }

// net is the span's wall time net of host steal, like every wall time the
// benchmark reports (see netWall).
func (s *span) net() time.Duration {
	return max(s.wall()-s.Steal/time.Duration(runtime.GOMAXPROCS(0)), 0)
}

// count records a count of the work the span did, both on the span, where
// the per-layer table shows it, and as the per-layer metric of that name.
func (s *span) count(r *report, metric, unit string, v float64) {
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[metric] = v
	r.set(metric, unit, v)
}

// tracer keeps spans in memory; they are written out when the run ends.
// Calls run one after another on one goroutine, so the open spans form a
// stack; spans of concurrent work are added after the fact with add.
type tracer struct {
	t0    time.Time
	spans []*span
	stack []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) *span {
	s := &span{ID: len(t.spans) + 1, Name: name, cpu0: processCPU(), steal0: hostSteal(), alloc0: heapAllocs()}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
	}
	s.Start = time.Since(t.t0)
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s)
	return s
}

func (t *tracer) end(s *span) {
	s.End = time.Since(t.t0)
	s.CPU = processCPU() - s.cpu0
	s.Steal = hostSteal() - s.steal0
	s.Alloc = heapAllocs() - s.alloc0
	t.stack = t.stack[:len(t.stack)-1]
}

// do traces one call.
func (t *tracer) do(name string, f func() error) (*span, error) {
	s := t.begin(name)
	err := f()
	t.end(s)
	if err != nil {
		return s, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// add records a span that ran concurrently with the open ones, from its
// start and duration; it has no CPU or allocation figures of its own.
func (t *tracer) add(name string, start time.Time, d time.Duration) *span {
	s := &span{ID: len(t.spans) + 1, Name: name, Start: start.Sub(t.t0)}
	s.End = s.Start + d
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
	}
	t.spans = append(t.spans, s)
	return s
}

// find returns the span at a slash-separated path of names from a root.
func (t *tracer) find(path string) *span {
	parent := 0
	var found *span
	for _, name := range strings.Split(path, "/") {
		found = nil
		for _, s := range t.spans {
			if s.Parent == parent && s.Name == name {
				found = s
				break
			}
		}
		if found == nil {
			return nil
		}
		parent = found.ID
	}
	return found
}

// self is a span's wall time minus the part of it its children cover.
func (t *tracer) self(s *span) time.Duration {
	var iv [][2]time.Duration
	for _, c := range t.spans {
		if c.Parent == s.ID {
			iv = append(iv, [2]time.Duration{max(c.Start, s.Start), min(c.End, s.End)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, hi time.Duration
	hi = s.Start
	for _, v := range iv {
		if v[1] <= hi {
			continue
		}
		lo := max(v[0], hi)
		covered += v[1] - lo
		hi = v[1]
	}
	return s.wall() - covered
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	if allocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return allocSample[0].Value.Uint64()
}

// layerMetrics are the per-layer metrics of a traced run, in BENCHMARK.json
// order. Every traced run runs all four groups, so each is always measured.
var layerMetrics = []metricDef{
	{"core.import_s", "s"}, {"core.import_cpu_s", "s"}, {"core.import_alloc_mb", "MB"},
	{"core.import_par_eff", "ratio"}, {"core.rows", "count"}, {"core.records", "count"},
	{"plaus.update_s", "s"}, {"plaus.update_cpu_s", "s"}, {"plaus.update_delta_s", "s"},
	{"hetero.update_s", "s"}, {"hetero.update_cpu_s", "s"}, {"hetero.update_alloc_mb", "MB"},
	{"hetero.update_par_eff", "ratio"}, {"hetero.update_delta_s", "s"},
	{"core.to_docdb_s", "s"}, {"core.from_docdb_s", "s"}, {"core.from_docdb_alloc_mb", "MB"},
	{"provenance.save_s", "s"}, {"provenance.save_alloc_mb", "MB"}, {"provenance.dirty_save_s", "s"},
	{"docstore.store_bytes", "bytes"}, {"docstore.segments_rewritten", "count"}, {"docstore.segments_reused", "count"},
	{"docstore.load_s", "s"}, {"docstore.load_alloc_mb", "MB"}, {"docstore.reload_load_s", "s"},
	{"docstore.segments_cached", "count"},
	{"httpapi.publish_s", "s"}, {"httpapi.publish_alloc_mb", "MB"}, {"serving.ready_heap_mb", "MB"},
	{"httpapi.records.p50_ms", "ms"}, {"httpapi.records.p99_ms", "ms"}, {"httpapi.records.count", "count"},
	{"httpapi.cluster.p50_ms", "ms"}, {"httpapi.cluster.p99_ms", "ms"}, {"httpapi.cluster.count", "count"},
	{"httpapi.summary.p50_ms", "ms"}, {"httpapi.summary.p99_ms", "ms"}, {"httpapi.summary.count", "count"},
	{"httpapi.query.p50_ms", "ms"}, {"httpapi.query.p99_ms", "ms"}, {"httpapi.query.count", "count"},
	{"httpapi.stats.p50_ms", "ms"}, {"httpapi.stats.p99_ms", "ms"}, {"httpapi.stats.count", "count"},
	{"serving.cache_hit_ratio", "ratio"},
	{"custom.build_s", "s"},
	{"blocking.elapsed_s", "s"}, {"blocking.emitted_pairs", "count"}, {"blocking.unique_pairs", "count"},
	{"blocking.unique_ratio", "ratio"},
	{"dedup.preprocessing_s", "s"}, {"dedup.scoring_s", "s"}, {"dedup.merge_s", "s"},
	{"dedup.me-lev_s", "s"}, {"dedup.jarowinkler_s", "s"}, {"dedup.jaccard_s", "s"},
	{"dedup.pairs_per_s", "1/s"}, {"dedup.par_eff", "ratio"},
	{"core.index_s", "s"}, {"core.delta_apply_s", "s"}, {"core.dirty_clusters", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_s", "s"},
	{"trace.wall_s", "s"}, {"trace.untraced_s", "s"}, {"trace.overhead_s", "s"},
}

// routeTimer wraps the in-process server and times every request at the
// httpapi boundary, per route of the read mix.
type routeTimer struct {
	h   http.Handler
	mu  sync.Mutex
	lat map[string][]float64
}

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.h.ServeHTTP(w, r)
	d := float64(time.Since(start)) / float64(time.Millisecond)
	route := routeOf(r.URL.Path)
	rt.mu.Lock()
	rt.lat[route] = append(rt.lat[route], d)
	rt.mu.Unlock()
}

// routeOf names the read-mix route of a request path.
func routeOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/records/"):
		return "records"
	case path == "/v1/clusters/summary":
		return "summary"
	case strings.HasPrefix(path, "/v1/clusters/"):
		return "cluster"
	case path == "/v1/clusters":
		return "query"
	case path == "/v1/stats":
		return "stats"
	}
	return "other"
}

// tracedRun is the in-process pipeline: the library calls the CLIs make,
// in the same order and with the same options, one span per call.
type tracedRun struct {
	o  *options
	in *inputs
	t  *tracer
	r  *report
	gc map[string][2]float64 // per group: GC cycles, GC pause seconds
}

// runTraced runs all four groups — build, serve, update, dedup — so every
// per-layer metric is measured whichever workload is named; the named
// workload selects the group whose GC figures are reported and the
// untraced figure the tracing overhead is taken against.
func runTraced(ctx context.Context, o *options, p *procs, in *inputs, name string) (*report, error) {
	untraced, err := untracedFigure(ctx, o, p, in, name)
	if err != nil {
		return nil, err
	}
	// Inputs first, outside every span.
	corpus, err := in.corpus(ctx, o.scale.BigVoters)
	if err != nil {
		return nil, err
	}
	small, err := in.store(ctx, o.scale.SmallVoters, 0)
	if err != nil {
		return nil, err
	}
	// ncserve logs every request to standard error, which the benchmark
	// discards; the in-process server logs into a discarded sink.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	tr := &tracedRun{o: o, in: in, t: newTracer(), r: &report{}, gc: map[string][2]float64{}}
	runs := filepath.Join(o.work, "runs")
	built := filepath.Join(runs, "traced-build")
	ds, err := tr.build(corpus, built)
	if err != nil {
		return nil, err
	}
	// The stride-layout copy `ncimport -stride` would have written.
	stride := filepath.Join(runs, "traced-stride")
	if _, err := provenance.Save(ds.ToDocDB(), stride, docstore.SaveOpts{Workers: o.nproc, Stride: o.scale.Stride},
		provenance.StampOpts{Meta: stampMeta(ds, corpus)}); err != nil {
		return nil, err
	}
	ds = nil // release the build group's dataset before the serve group
	deltas, err := in.deltasFrom(stride)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if err := tr.serve(ctx, built); err != nil {
		return nil, err
	}
	runtime.GC()
	if err := tr.update(stride, deltas.Rounds[0]); err != nil {
		return nil, err
	}
	runtime.GC()
	if err := tr.dedup(small); err != nil {
		return nil, err
	}

	r := tr.r
	// The traced counterpart of each workload's untraced figure.
	group := map[string]string{wlBuild: "build", wlDedup: "dedup", wlUpdate: "update/update.round"}[name]
	g := tr.t.find(group)
	gc := tr.gc[strings.Split(group, "/")[0]]
	r.set("runtime.gc_cycles", "count", gc[0])
	r.set("runtime.gc_pause_s", "s", gc[1])
	r.set("trace.wall_s", "s", g.net().Seconds())
	r.set("trace.untraced_s", "s", untraced)
	r.set("trace.overhead_s", "s", g.net().Seconds()-untraced)
	r.Attempted = 4 // the four traced groups
	if err := tr.write(name); err != nil {
		return nil, err
	}
	return r, nil
}

// untracedFigure is the untraced end-to-end time the traced group is
// compared with: the operation's median from this checkout's last untraced
// run of the workload and seed on the same source, or from a short
// untraced run made now.
func untracedFigure(ctx context.Context, o *options, p *procs, in *inputs, name string) (float64, error) {
	var prev report
	path := filepath.Join(o.work, "results", resultName(o, name, false)+".json")
	if err := readJSON(path, &prev); err != nil || !prev.correct() || prev.Env["source_sha256"] != o.src {
		one := *o
		one.seconds, one.trace = 0, false
		r, err := runWorkload(ctx, &one, p, in, name)
		if err != nil {
			return 0, err
		}
		prev = *r
	}
	return prev.Metrics["p50_ms"].Value / 1000, nil
}

func (tr *tracedRun) group(name string, f func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := tr.t.do(name, f)
	runtime.ReadMemStats(&m1)
	tr.gc[name] = [2]float64{float64(m1.NumGC - m0.NumGC), float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9}
	return err
}

// stampMeta is ncimport's provenance metadata for an import of dir.
func stampMeta(ds *core.Dataset, dir string) provenance.Meta {
	gen, err := provenance.ReadGeneratorInfo(dir)
	if err != nil {
		gen = nil
	}
	return provenance.Meta{Source: "ncimport", Mode: ds.Mode.String(), Lineage: ds.SnapshotLineage(), Generator: gen}
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func (tr *tracedRun) layer(metric string, s *span) {
	tr.r.set(metric+"_s", "s", s.net().Seconds())
}

// build mirrors `ncimport -scores`: parse+merge every snapshot, score,
// publish, persist and stamp.
func (tr *tracedRun) build(corpus, out string) (*core.Dataset, error) {
	o, t, r := tr.o, tr.t, tr.r
	ds := core.NewDataset(core.RemoveTrimmed)
	m := obs.NewMetrics()
	err := tr.group("build", func() error {
		files, err := voter.ListSnapshotFiles(corpus)
		if err != nil {
			return err
		}
		s, err := t.do("core.import", func() error {
			for _, f := range files {
				if _, err := ds.ImportSnapshotFileParallelOpts(f, core.IngestOptions{Workers: o.nproc, Observer: m}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		tr.layer("core.import", s)
		r.set("core.import_cpu_s", "s", s.CPU.Seconds())
		r.set("core.import_alloc_mb", "MB", mb(s.Alloc))
		r.set("core.import_par_eff", "ratio", parEff(s))
		s.count(r, "core.rows", "count", float64(ds.TotalRows()))
		s.count(r, "core.records", "count", float64(ds.NumRecords()))
		s, _ = t.do("plaus.update", func() error { plaus.UpdateParallel(ds, o.nproc); return nil })
		tr.layer("plaus.update", s)
		r.set("plaus.update_cpu_s", "s", s.CPU.Seconds())
		s, _ = t.do("hetero.update", func() error { hetero.UpdateParallel(ds, o.nproc); return nil })
		tr.layer("hetero.update", s)
		r.set("hetero.update_cpu_s", "s", s.CPU.Seconds())
		r.set("hetero.update_alloc_mb", "MB", mb(s.Alloc))
		r.set("hetero.update_par_eff", "ratio", parEff(s))
		ds.Publish()
		var db *docstore.DB
		s, _ = t.do("core.to_docdb", func() error { db = ds.ToDocDB(); return nil })
		tr.layer("core.to_docdb", s)
		s, err = t.do("provenance.save", func() error {
			_, err := provenance.Save(db, out, docstore.SaveOpts{Workers: o.nproc, Observer: m},
				provenance.StampOpts{Meta: stampMeta(ds, corpus), Observer: m})
			return err
		})
		if err != nil {
			return err
		}
		tr.layer("provenance.save", s)
		r.set("provenance.save_alloc_mb", "MB", mb(s.Alloc))
		return nil
	})
	if err != nil {
		return nil, err
	}
	bytes, err := dirBytes(out)
	if err != nil {
		return nil, err
	}
	t.find("build/provenance.save").count(r, "docstore.store_bytes", "bytes", float64(bytes))
	c, err := expect(o, tr.in, wlBuild, datasetDigest(ds))
	if err != nil {
		return nil, err
	}
	c.Name = "traced " + c.Name
	r.Identity = append(r.Identity, c)
	return ds, nil
}

// parEff is a span's parallel efficiency: CPU ÷ (wall × GOMAXPROCS), with
// the wall time net of host steal.
func parEff(s *span) float64 {
	if s.net() <= 0 {
		return 0
	}
	return s.CPU.Seconds() / (s.net().Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// load mirrors ncserve's load: read the store through the segment cache,
// parse the clusters, check the provenance record and publish a snapshot.
func (tr *tracedRun) load(api *httpapi.Server, db string, cache *docstore.SegmentCache, m *obs.Metrics) error {
	o, t := tr.o, tr.t
	var stored *docstore.DB
	if _, err := t.do("docstore.load", func() (err error) {
		lo := docstore.LoadOpts{Workers: o.nproc, Cache: cache}
		if m != nil { // a nil *obs.Metrics must not become a non-nil Observer
			lo.Observer = m
		}
		stored, err = docstore.LoadParallelOpts(db, lo)
		return err
	}); err != nil {
		return err
	}
	var ds *core.Dataset
	if _, err := t.do("core.from_docdb", func() (err error) {
		ds, err = core.FromDocDBParallel(stored, o.nproc)
		return err
	}); err != nil {
		return err
	}
	var record []byte
	_, _ = t.do("provenance.load_record", func() error {
		if rec, raw, err := provenance.LoadRecord(nil, db); err == nil && rec.SelfCheck() == nil {
			record = raw
		}
		return nil
	})
	_, err := t.do("httpapi.publish", func() error { api.PublishWithProvenance(ds, record); return nil })
	return err
}

func newAPI(o *options) *httpapi.Server {
	return httpapi.NewDeferred(
		httpapi.WithTimeout(10*time.Second),
		httpapi.WithMaxInflight(256),
		httpapi.WithStoreWorkers(o.nproc),
		httpapi.WithSnapshotServing(true),
		httpapi.WithResponseCache(responseCacheEntries),
	)
}

// serve mirrors ncserve's start on the built store, then drives the read
// mix over loopback from nproc clients, timing each request at the handler,
// and reads the server's cache counters.
func (tr *tracedRun) serve(ctx context.Context, db string) error {
	o, t, r := tr.o, tr.t, tr.r
	ids, err := tr.in.ncids(db)
	if err != nil {
		return err
	}
	api := newAPI(o)
	return tr.group("serve", func() error {
		if _, err := t.do("serve.start", func() error { return tr.load(api, db, docstore.NewSegmentCache(), nil) }); err != nil {
			return err
		}
		for _, c := range []string{"docstore.load", "core.from_docdb", "httpapi.publish"} {
			l := tr.t.find("serve/serve.start/" + c)
			tr.layer(c, l)
			r.set(c+"_alloc_mb", "MB", mb(l.Alloc))
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.set("serving.ready_heap_mb", "MB", mb(ms.HeapAlloc))

		timer := &routeTimer{h: api, lat: map[string][]float64{}}
		reqs, err := t.do("serve.requests", func() error {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			srv := &http.Server{Handler: timer, ReadHeaderTimeout: 5 * time.Second}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(l) }()
			res := runLoad(ctx, "http://"+l.Addr().String(), o.nproc, o.scale.TraceReads, 0, nil, o.seed, ids, 0)
			if err := srv.Shutdown(context.Background()); err != nil {
				return err
			}
			if err := <-served; err != http.ErrServerClosed {
				return err
			}
			if res.Failed > 0 {
				return fmt.Errorf("%d of %d traced reads failed", res.Failed, res.Attempted)
			}
			return nil
		})
		if err != nil {
			return err
		}
		timer.mu.Lock()
		defer timer.mu.Unlock()
		for _, route := range []string{"records", "cluster", "summary", "query", "stats"} {
			lat := timer.lat[route]
			sort.Float64s(lat)
			r.set("httpapi."+route+".p50_ms", "ms", percentile(lat, 0.5))
			r.set("httpapi."+route+".p99_ms", "ms", percentile(lat, 0.99))
			reqs.count(r, "httpapi."+route+".count", "count", float64(len(lat)))
		}
		snap := api.Metrics().Snapshot()
		hits, misses := snap.Counters["serving_cache_hits"], snap.Counters["serving_cache_misses"]
		r.set("serving.cache_hit_ratio", "ratio", share(hits, hits+misses))
		return nil
	})
}

// update mirrors one update round: ncserve started on the stride store,
// `ncimport -delta -stride -scores` on one delta file, and the SIGHUP
// reload through the server's segment cache.
func (tr *tracedRun) update(db, deltaDir string) error {
	o, t, r := tr.o, tr.t, tr.r
	api := newAPI(o)
	cache := docstore.NewSegmentCache()
	return tr.group("update", func() error {
		if _, err := t.do("update.start", func() error { return tr.load(api, db, cache, nil) }); err != nil {
			return err
		}
		m := obs.NewMetrics()
		_, err := t.do("update.round", func() error {
			_, err := t.do("update.import", func() error { return tr.deltaImport(db, deltaDir, m) })
			if err != nil {
				return err
			}
			_, err = t.do("update.reload", func() error { return tr.load(api, db, cache, m) })
			return err
		})
		if err != nil {
			return err
		}
		for metric, path := range map[string]string{
			"core.index":            "update/update.round/update.import/core.index",
			"core.delta_apply":      "update/update.round/update.import/core.delta_apply",
			"plaus.update_delta":    "update/update.round/update.import/plaus.update_delta",
			"hetero.update_delta":   "update/update.round/update.import/hetero.update_delta",
			"provenance.dirty_save": "update/update.round/update.import/provenance.dirty_save",
			"docstore.reload_load":  "update/update.round/update.reload/docstore.load",
		} {
			tr.layer(metric, t.find(path))
		}
		c := m.Snapshot().Counters
		save := t.find("update/update.round/update.import/provenance.dirty_save")
		save.count(r, "docstore.segments_rewritten", "count", float64(c[docstore.CounterSegmentsWritten]))
		save.count(r, "docstore.segments_reused", "count", float64(c[docstore.CounterSegmentsReused]))
		t.find("update/update.round/update.reload/docstore.load").count(r, "docstore.segments_cached", "count",
			float64(c[docstore.CounterSegmentsCached]))
		return nil
	})
}

// deltaImport mirrors `ncimport -delta -stride -scores` on one delta
// directory.
func (tr *tracedRun) deltaImport(db, dir string, m *obs.Metrics) error {
	o, t, r := tr.o, tr.t, tr.r
	var stored *docstore.DB
	if _, err := t.do("docstore.load", func() (err error) {
		stored, err = docstore.LoadParallelOpts(db, docstore.LoadOpts{Workers: o.nproc})
		return err
	}); err != nil {
		return err
	}
	var ds *core.Dataset
	if _, err := t.do("core.from_docdb", func() (err error) {
		ds, err = core.FromDocDBParallel(stored, o.nproc)
		return err
	}); err != nil {
		return err
	}
	files, err := voter.ListSnapshotFiles(dir)
	if err != nil {
		return err
	}
	var ix *core.FingerprintIndex
	_, _ = t.do("core.index", func() error { ix = core.BuildFingerprintIndex(ds); return nil })
	merged := &core.Delta{}
	apply, err := t.do("core.delta_apply", func() error {
		for _, f := range files {
			dl, err := ds.ApplySnapshotDelta(f, core.DeltaOptions{Workers: o.nproc, Index: ix})
			if err != nil {
				return err
			}
			merged.Merge(dl)
		}
		return nil
	})
	if err != nil {
		return err
	}
	apply.count(r, "core.dirty_clusters", "count", float64(len(merged.Dirty())))
	_, _ = t.do("plaus.update_delta", func() error { plaus.UpdateDelta(ds, merged, o.nproc); return nil })
	_, _ = t.do("hetero.update_delta", func() error { hetero.UpdateDelta(ds, merged, o.nproc); return nil })
	ds.Publish()
	_, err = t.do("provenance.dirty_save", func() error {
		_, err := provenance.Save(ds.ToDocDB(), db,
			docstore.SaveOpts{Workers: o.nproc, Observer: m, Stride: o.scale.Stride, Dirty: merged.DirtyIDs()},
			provenance.StampOpts{Meta: stampMeta(ds, dir)})
		return err
	})
	return err
}

// dedup mirrors `ncdedup -db -stream -curves`: load and derive the labeled
// dataset, then one blocking stream per measure feeding the scorer.
// Blocking spans overlap the scoring spans they feed.
func (tr *tracedRun) dedup(db string) error {
	o, t, r := tr.o, tr.t, tr.r
	var lines []string
	printf := func(format string, a ...any) {
		lines = append(lines, strings.Split(strings.TrimRight(fmt.Sprintf(format, a...), "\n"), "\n")...)
	}
	err := tr.group("dedup", func() error {
		var stored *docstore.DB
		if _, err := t.do("docstore.load", func() (err error) {
			stored, err = docstore.LoadParallelOpts(db, docstore.LoadOpts{Workers: o.nproc})
			return err
		}); err != nil {
			return err
		}
		var cds *core.Dataset
		if _, err := t.do("core.from_docdb", func() (err error) {
			cds, err = core.FromDocDBParallel(stored, o.nproc)
			return err
		}); err != nil {
			return err
		}
		var ds *dedup.Dataset
		s, _ := t.do("custom.build", func() error {
			ds = custom.Build(cds, custom.Config{Name: db, HLow: 0, HHigh: 1})
			return nil
		})
		tr.layer("custom.build", s)
		printf("%s: %d records, %d clusters, %d true duplicate pairs\n",
			ds.Name, ds.NumRecords(), ds.NumClusters(), ds.NumTruePairs())
		m := obs.NewMetrics()
		cfg := dedupBlocking(ds, o.nproc)
		cfg.Observer = m
		stages := map[string]time.Duration{}
		var blockingTotal, measures, cpu time.Duration
		var st blocking.Stats
		var block *span // the first measure's blocking stream
		for i, meas := range dedup.Measures {
			scfg := cfg
			if i > 0 {
				scfg.Observer = nil
			}
			ms, _ := t.do("dedup."+measureKey(meas), func() error {
				start := time.Now()
				bs := blocking.GenerateStream(ds, scfg, blocking.StreamOpts{
					BatchSize: blocking.DefaultStreamBatch, Buffer: blocking.DefaultStreamBuffer})
				opts := dedup.ScoreOpts{Workers: o.nproc, Observer: m, Recycle: bs.Recycle,
					OnStage: func(stage string, d time.Duration) {
						stages[stage] += d
						t.add("dedup."+stage, time.Now().Add(-d), d)
					}}
				curve := dedup.EvaluateCandidatesStream(ds, meas, bs.C, 100, opts)
				blockingTotal += bs.Elapsed()
				b := t.add("blocking.stream", start, bs.Elapsed())
				if i == 0 {
					block, st = b, bs.Stats()
					for _, p := range st.SNMPasses {
						printf("blocking: snm pass %-28s window %-3d %8d pairs\n", p.Name, p.Window, p.Pairs)
					}
					printf("blocking: %d unique candidate pairs (%d emitted), recall %.3f\n",
						st.Unique, st.Emitted, curve.Points[0].Recall)
				}
				f1, th := curve.BestF1()
				printf("%-12s best F1 %.3f at threshold %.2f\n", meas, f1, th)
				for _, p := range curve.Points {
					printf("  t=%.2f precision %.3f recall %.3f F1 %.3f\n", p.Threshold, p.Precision, p.Recall, p.F1)
				}
				return nil
			})
			tr.layer("dedup."+measureKey(meas), ms)
			measures += ms.net()
			cpu += ms.CPU
		}
		r.set("blocking.elapsed_s", "s", blockingTotal.Seconds())
		block.count(r, "blocking.emitted_pairs", "count", float64(st.Emitted))
		block.count(r, "blocking.unique_pairs", "count", float64(st.Unique))
		r.set("blocking.unique_ratio", "ratio", share(int64(st.Unique), int64(st.Emitted)))
		for _, stage := range []string{"preprocessing", "scoring", "merge"} {
			r.set("dedup."+stage+"_s", "s", stages[stage].Seconds())
		}
		r.set("dedup.pairs_per_s", "1/s", float64(len(dedup.Measures)*st.Unique)/measures.Seconds())
		// Over the three measure spans, which scoring fills almost entirely.
		r.set("dedup.par_eff", "ratio", cpu.Seconds()/(measures.Seconds()*float64(runtime.GOMAXPROCS(0))))
		return nil
	})
	if err != nil {
		return err
	}
	c, err := expect(o, tr.in, wlDedup, textDigest(dedupLines([]byte(strings.Join(lines, "\n")))))
	if err != nil {
		return err
	}
	c.Name = "traced " + c.Name
	r.Identity = append(r.Identity, c)
	return nil
}

// measureKey names a measure in metric names: "ME/Lev" -> "me-lev".
func measureKey(m dedup.Measure) string {
	return strings.ToLower(strings.ReplaceAll(string(m), "/", "-"))
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Path    string             `json:"path"`
	WallS   float64            `json:"wall_s"`
	NetS    float64            `json:"net_s"` // wall net of host steal
	SelfS   float64            `json:"self_s"`
	CPUS    float64            `json:"cpu_s"`
	AllocMB float64            `json:"alloc_mb"`
	ParEff  float64            `json:"par_eff"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// write saves the spans and the per-layer table beside the end-to-end
// results, and prints the table.
func (tr *tracedRun) write(name string) error {
	t := tr.t
	byID := map[int]*span{}
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	path := func(s *span) string {
		p := s.Name
		for s.Parent != 0 {
			s = byID[s.Parent]
			p = s.Name + "/" + p
		}
		return p
	}
	var rows []layerRow
	for _, s := range t.spans {
		rows = append(rows, layerRow{Path: path(s), WallS: s.wall().Seconds(), NetS: s.net().Seconds(), SelfS: t.self(s).Seconds(),
			CPUS: s.CPU.Seconds(), AllocMB: mb(s.Alloc), ParEff: parEff(s), Counts: s.Counts})
	}
	dir := filepath.Join(tr.o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, resultName(tr.o, name, true))
	if err := writeJSON(base+"-spans.json", t.spans); err != nil {
		return err
	}
	if err := writeJSON(base+"-layers.json", rows); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-62s %9s %9s %9s %9s %10s %7s  %s\n", "span", "wall_s", "net_s", "self_s", "cpu_s", "alloc_mb", "par_eff", "counts")
	for _, row := range rows {
		var counts []string
		for _, k := range sortedKeys(row.Counts) {
			counts = append(counts, fmt.Sprintf("%s=%.0f", k, row.Counts[k]))
		}
		fmt.Fprintf(&b, "%-62s %9.3f %9.3f %9.3f %9.3f %10.1f %7.2f  %s\n", row.Path, row.WallS, row.NetS, row.SelfS,
			row.CPUS, row.AllocMB, row.ParEff, strings.Join(counts, " "))
	}
	tr.r.extra("layers_file", base+"-layers.json")
	tr.r.extra("spans_file", base+"-spans.json")
	fmt.Print(b.String())
	return os.WriteFile(base+"-layers.txt", []byte(b.String()), 0o644)
}
