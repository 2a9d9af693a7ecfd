package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/docstore"
)

// identityCheck is one output-identity comparison of a run.
type identityCheck struct {
	Name   string `json:"name"`
	Got    string `json:"got"`
	Want   string `json:"want"`
	Source string `json:"source"` // recorded, first-use or check
	OK     bool   `json:"ok"`
}

// expectedDigests holds the digests recorded for known seeds, keyed
// "<scale>/<seed>/<name>". They were taken from the seed commit's outputs.
//
//go:embed expected.json
var expectedJSON []byte

// expect compares got with the digest recorded for this seed. A seed with
// no recorded digest is pinned on its first use in this checkout (the
// digest is kept with the cached inputs) and compared from then on.
func expect(o *options, in *inputs, name, got string) (identityCheck, error) {
	key := fmt.Sprintf("%s/%d/%s", o.scale.Name, o.seed, name)
	c := identityCheck{Name: name, Got: got, Source: "recorded"}
	var recorded map[string]string
	if err := json.Unmarshal(expectedJSON, &recorded); err != nil {
		return c, fmt.Errorf("expected.json: %w", err)
	}
	want, ok := recorded[key]
	if !ok {
		c.Source = "first-use"
		var err error
		if want, err = in.firstUse(name, got); err != nil {
			return c, err
		}
	}
	if o.perturb {
		want = perturb(want)
	}
	c.Want, c.OK = want, want == got
	return c, nil
}

// check records a yes/no identity condition, such as a verifier's exit code.
func check(name string, ok bool, detail string) identityCheck {
	want := "ok"
	got := want
	if !ok {
		got = detail
	}
	return identityCheck{Name: name, Got: got, Want: want, Source: "check", OK: ok}
}

// perturb flips the last hex digit of a digest.
func perturb(d string) string {
	if d == "" {
		return "0"
	}
	last := d[len(d)-1]
	flip := byte('0')
	if last == '0' {
		flip = '1'
	}
	return d[:len(d)-1] + string(flip)
}

// storeDigest loads a store directory and digests the dataset it holds.
func storeDigest(dir string, workers int) (string, *core.Dataset, error) {
	db, err := docstore.LoadParallelOpts(dir, docstore.LoadOpts{Workers: workers})
	if err != nil {
		return "", nil, err
	}
	ds, err := core.FromDocDBParallel(db, workers)
	if err != nil {
		return "", nil, err
	}
	return datasetDigest(ds), ds, nil
}

// datasetDigest hashes every cluster's content — records, their hashes,
// first versions and snapshot trails, per-snapshot insert counts and every
// similarity score — plus the version and import history. It reads the
// decoded dataset, never the store bytes, so it does not depend on the
// on-disk encoding.
func datasetDigest(ds *core.Dataset) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	fmt.Fprintf(w, "mode %s rows %d\n", ds.Mode, ds.TotalRows())
	for _, v := range ds.Versions() {
		fmt.Fprintf(w, "version %d %s\n", v.Number, strings.Join(v.Snapshots, ","))
	}
	for _, s := range ds.Imports() {
		fmt.Fprintf(w, "import %s %d %d %d\n", s.Snapshot, s.Rows, s.NewRecords, s.NewObjects)
	}
	ids := append([]string(nil), ds.NCIDs()...)
	sort.Strings(ids)
	for _, id := range ids {
		c := ds.Cluster(id)
		fmt.Fprintf(w, "cluster %s %d\n", id, len(c.Records))
		for _, e := range c.Records {
			fmt.Fprintf(w, "rec %x %d %s\n%s\n", e.Hash[:], e.FirstVersion,
				strings.Join(e.Snapshots, ","), strings.Join(e.Rec.Values, "\x1f"))
		}
		for _, k := range sortedKeys(c.Inserted) {
			fmt.Fprintf(w, "ins %s %d\n", k, c.Inserted[k])
		}
		for _, kind := range sortedKeys(c.SimMaps) {
			m := c.SimMaps[kind]
			for _, v := range sortedInts(m) {
				for _, i := range sortedInts(m[v]) {
					for _, j := range sortedInts(m[v][i]) {
						fmt.Fprintf(w, "sim %s %d %d %d %x\n", kind, v, i, j, math.Float64bits(m[v][i][j]))
					}
				}
			}
		}
	}
	_ = w.Flush() // writes into a hash cannot fail
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedInts[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// textDigest hashes lines of program output.
func textDigest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// dedupLines keeps the part of ncdedup's output that the identity gate
// covers: the dataset line without its name (the store path), the blocking
// summary lines and every measure's full curve.
func dedupLines(out []byte) []string {
	var lines []string
	for i, l := range strings.Split(strings.TrimRight(string(out), "\n"), "\n") {
		if i == 0 {
			if _, rest, ok := strings.Cut(l, ": "); ok {
				l = rest
			}
		}
		lines = append(lines, l)
	}
	return lines
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
