package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/custom"
	"repro/internal/dedup"
	"repro/internal/hetero"
	"repro/internal/testkit"
	"repro/internal/voter"
)

// inputs generates a seed's inputs once and caches them before any timing.
// The ncgen corpora, and the digests pinned on first use, are kept per
// (scale, seed) under .perfbench/cache/<scale>-s<seed>/. Everything the
// code under test derives from them — stores written by ncimport, delta
// files, the NCID pool and the workload descriptors — is kept one level
// deeper, under src-<source digest>/, so two commits measured in one
// checkout never load what the other wrote.
type inputs struct {
	o    *options
	p    *procs
	seed string // per (scale, seed)
	dir  string // per (scale, seed, source)
}

func newInputs(o *options, p *procs) *inputs {
	seed := filepath.Join(o.work, "cache", fmt.Sprintf("%s-s%d", o.scale.Name, o.seed))
	return &inputs{o: o, p: p, seed: seed, dir: filepath.Join(seed, "src-"+o.src[:16])}
}

// cachedIn returns dir/name, building it first if it is missing. build writes
// into a temporary path that is renamed into place only on success, so an
// interrupted run never leaves a partial input behind.
func cachedIn(dir, name string, build func(tmp string) error) (string, error) {
	path := filepath.Join(dir, name)
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	tmp := path + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := build(tmp); err != nil {
		_ = os.RemoveAll(tmp) // best effort; the next run starts over anyway
		return "", fmt.Errorf("preparing %s: %w", name, err)
	}
	return path, os.Rename(tmp, path)
}

// cached keeps an input that the code under test derives.
func (in *inputs) cached(name string, build func(tmp string) error) (string, error) {
	return cachedIn(in.dir, name, build)
}

// importArgs are the ncimport flags of a full scored import.
func importArgs(o *options, corpus, db string, extra ...string) []string {
	args := []string{"-in", corpus, "-scores", "-db", db,
		"-workers", strconv.Itoa(o.nproc), "-store-workers", strconv.Itoa(o.nproc)}
	return append(args, extra...)
}

// corpus is the ncgen output for voters initial voters (light errors).
func (in *inputs) corpus(ctx context.Context, voters int) (string, error) {
	return cachedIn(in.seed, fmt.Sprintf("corpus-%d", voters), func(tmp string) error {
		_, err := runCLI(ctx, in.o, in.p, "ncgen", "-out", tmp, "-voters", strconv.Itoa(voters),
			"-years", strconv.Itoa(in.o.scale.Years), "-seed", strconv.FormatInt(in.o.seed, 10),
			"-workers", strconv.Itoa(in.o.nproc))
		return err
	})
}

// store is the scored ncimport store of the corpus; stride > 0 saves it in
// the stable segment layout that delta imports need.
func (in *inputs) store(ctx context.Context, voters, stride int) (string, error) {
	corpus, err := in.corpus(ctx, voters)
	if err != nil {
		return "", err
	}
	name := fmt.Sprintf("store-%d", voters)
	if stride > 0 {
		name += fmt.Sprintf("-stride%d", stride)
	}
	return in.cached(name, func(tmp string) error {
		var extra []string
		if stride > 0 {
			extra = []string{"-stride", strconv.Itoa(stride)}
		}
		_, err := runCLI(ctx, in.o, in.p, "ncimport", importArgs(in.o, corpus, tmp, extra...)...)
		return err
	})
}

// deltaMeta describes the prepared delta rounds.
type deltaMeta struct {
	Rounds  []string `json:"rounds"` // directories, each holding one snapshot file
	Rows    []int    `json:"rows"`
	Changed []int    `json:"changed"` // clusters each round changes
}

// deltas prepares the update rounds on the stride store.
func (in *inputs) deltas(ctx context.Context) (deltaMeta, error) {
	base, err := in.store(ctx, in.o.scale.BigVoters, in.o.scale.Stride)
	if err != nil {
		return deltaMeta{}, err
	}
	return in.deltasFrom(base)
}

// deltasFrom prepares the update rounds against the dataset stored in base:
// one contiguous delta file per round, each changing deltaFrac of the
// clusters, dated after every corpus snapshot and after the rounds before
// it.
func (in *inputs) deltasFrom(base string) (deltaMeta, error) {
	var meta deltaMeta
	dir, err := in.cached("deltas", func(tmp string) error {
		_, ds, err := storeDigest(base, in.o.nproc)
		if err != nil {
			return err
		}
		var m deltaMeta
		for k := 1; k <= in.o.scale.Rounds; k++ {
			name := fmt.Sprintf("r%02d", k)
			rd := filepath.Join(tmp, name)
			if err := os.MkdirAll(rd, 0o755); err != nil {
				return err
			}
			path, changed, err := testkit.WriteDeltaFile(rd, ds, fmt.Sprintf("%04d-01-01", 2090+k), deltaFrac, true)
			if err != nil {
				return err
			}
			rows, err := countRows(path)
			if err != nil {
				return err
			}
			m.Rounds = append(m.Rounds, name)
			m.Rows = append(m.Rows, rows)
			m.Changed = append(m.Changed, changed)
		}
		return writeJSON(filepath.Join(tmp, "meta.json"), m)
	})
	if err != nil {
		return meta, err
	}
	if err := readJSON(filepath.Join(dir, "meta.json"), &meta); err != nil {
		return meta, err
	}
	for i, r := range meta.Rounds {
		meta.Rounds[i] = filepath.Join(dir, r)
	}
	return meta, nil
}

// ncids is the pool of every cluster's NCID in db, sorted. db is any store
// of the big corpus: every layout of it, and the traced run's own build,
// holds the same clusters.
func (in *inputs) ncids(db string) ([]string, error) {
	path, err := in.cached("ncids.txt", func(tmp string) error {
		_, ds, err := storeDigest(db, in.o.nproc)
		if err != nil {
			return err
		}
		ids := ds.NCIDs()
		sort.Strings(ids)
		return os.WriteFile(tmp, []byte(strings.Join(ids, "\n")+"\n"), 0o644)
	})
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return strings.Fields(string(b)), nil
}

// firstUse pins the digest of an output whose seed has no recorded digest:
// the first run in this checkout stores it, later runs compare against it.
// The pin is kept per seed, not per source, so that a later commit measured
// in the same checkout is held to the outputs of the first, as it is to a
// recorded digest.
func (in *inputs) firstUse(name, got string) (string, error) {
	path := filepath.Join(in.seed, "first-use.json")
	seen := map[string]string{}
	if err := readJSON(path, &seen); err != nil && !os.IsNotExist(err) {
		return "", err
	}
	if want, ok := seen[name]; ok {
		return want, nil
	}
	seen[name] = got
	if err := os.MkdirAll(in.seed, 0o755); err != nil {
		return "", err
	}
	return got, writeJSON(path, seen)
}

// descriptor returns the facts about a workload's inputs, computed once per
// seed: sizes, pair counts, the NCID pool against the response cache, and
// the share of compared attribute values that are byte-equal.
func (in *inputs) descriptor(ctx context.Context, workload string) (map[string]any, error) {
	path, err := in.cached("descriptor-"+workload+".json", func(tmp string) error {
		d, err := in.describe(ctx, workload)
		if err != nil {
			return err
		}
		return writeJSON(tmp, d)
	})
	if err != nil {
		return nil, err
	}
	d := map[string]any{}
	return d, readJSON(path, &d)
}

// responseCacheEntries is ncserve's default -cache size.
const responseCacheEntries = 1024

func (in *inputs) describe(ctx context.Context, workload string) (map[string]any, error) {
	o := in.o
	d := map[string]any{"seed": o.seed, "scale": o.scale.Name, "years": o.scale.Years, "errors": "light"}
	switch workload {
	case wlBuild:
		corpus, err := in.corpus(ctx, o.scale.BigVoters)
		if err != nil {
			return nil, err
		}
		ds, files, err := importCorpus(corpus, o.nproc)
		if err != nil {
			return nil, err
		}
		eq, total := equalShareClusters(ds, hetero.AllColumns())
		d["voters"], d["snapshots"] = o.scale.BigVoters, files
		d["rows"], d["records"], d["clusters"], d["true_pairs"] = ds.TotalRows(), ds.NumRecords(), ds.NumClusters(), ds.NumPairs()
		d["equal_value_share"] = share(eq, total)
		d["equal_value_compared"] = total
		d["equal_value_over"] = "duplicate pairs, all 90 attributes"
	case wlUpdate:
		stride := o.scale.Stride
		db, err := in.store(ctx, o.scale.BigVoters, stride)
		if err != nil {
			return nil, err
		}
		_, ds, err := storeDigest(db, o.nproc)
		if err != nil {
			return nil, err
		}
		bytes, err := dirBytes(db)
		if err != nil {
			return nil, err
		}
		d["voters"], d["records"], d["clusters"], d["true_pairs"] = o.scale.BigVoters, ds.NumRecords(), ds.NumClusters(), ds.NumPairs()
		d["store_bytes"] = bytes
		d["ncid_pool"], d["response_cache_entries"] = ds.NumClusters(), responseCacheEntries
		m, err := in.deltas(ctx)
		if err != nil {
			return nil, err
		}
		d["stride"], d["delta_fraction"] = stride, deltaFrac
		d["delta_rows"], d["delta_changed_clusters"] = m.Rows, m.Changed
	case wlDedup:
		db, err := in.store(ctx, o.scale.SmallVoters, 0)
		if err != nil {
			return nil, err
		}
		_, cds, err := storeDigest(db, o.nproc)
		if err != nil {
			return nil, err
		}
		ds := custom.Build(cds, custom.Config{Name: db, HLow: 0, HHigh: 1})
		cfg := dedupBlocking(ds, o.nproc)
		pairs, st := blocking.Generate(ds, cfg)
		eq, total := equalSharePairs(ds, pairs)
		bytes, err := dirBytes(db)
		if err != nil {
			return nil, err
		}
		d["voters"], d["records"], d["clusters"], d["true_pairs"] = o.scale.SmallVoters, ds.NumRecords(), ds.NumClusters(), ds.NumTruePairs()
		d["candidate_pairs"], d["emitted_pairs"], d["store_bytes"] = st.Unique, st.Emitted, bytes
		d["equal_value_share"] = share(eq, total)
		d["equal_value_compared"] = total
		d["equal_value_over"] = "candidate pairs, the labeled dataset's attributes"
	}
	return d, nil
}

// dedupBlocking is ncdedup's default blocking: SNM over the five most
// unique attributes, window 20.
func dedupBlocking(ds *dedup.Dataset, workers int) blocking.Config {
	return blocking.Config{Window: 20, Passes: blocking.EntropyPasses(ds, 5), Workers: workers}
}

func importCorpus(dir string, workers int) (*core.Dataset, int, error) {
	files, err := voter.ListSnapshotFiles(dir)
	if err != nil {
		return nil, 0, err
	}
	ds := core.NewDataset(core.RemoveTrimmed)
	for _, f := range files {
		if _, err := ds.ImportSnapshotFileParallelOpts(f, core.IngestOptions{Workers: workers}); err != nil {
			return nil, 0, err
		}
	}
	return ds, len(files), nil
}

// equalShareClusters counts byte-equal attribute values over every pair of
// records within a cluster (the duplicate pairs scoring compares).
func equalShareClusters(ds *core.Dataset, cols []int) (eq, total int64) {
	ds.Clusters(func(c *core.Cluster) bool {
		for i := range c.Records {
			for j := 0; j < i; j++ {
				a, b := c.Records[i].Rec.Values, c.Records[j].Rec.Values
				for _, col := range cols {
					total++
					if a[col] == b[col] {
						eq++
					}
				}
			}
		}
		return true
	})
	return eq, total
}

// equalSharePairs counts byte-equal attribute values over candidate pairs.
func equalSharePairs(ds *dedup.Dataset, pairs []dedup.Pair) (eq, total int64) {
	for _, p := range pairs {
		a, b := ds.Records[p.I], ds.Records[p.J]
		for k := range a {
			total++
			if a[k] == b[k] {
				eq++
			}
		}
	}
	return eq, total
}

func share(eq, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(eq) / float64(total)
}

// countRows counts the data rows of a TSV snapshot file (all lines but the
// header).
func countRows(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	n := 0
	for sc.Scan() {
		n++
	}
	return max(n-1, 0), sc.Err()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
