// Command perfbench is the repository's end-to-end benchmark. It drives the
// shipped CLIs (ncgen, ncimport, ncserve, ncdedup, ncstats) through their
// flags and the HTTP API on seeded corpora, checks that their outputs are
// unchanged, and prints one JSON result line. With -trace 1 it instead runs
// the same library calls in process, records one span per call and prints
// the per-layer metrics.
//
// Run it through run.sh from the repository root, which builds the CLIs and
// this program from source first:
//
//	bash perfbench/run.sh --workload build-2k --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// scale sizes every workload's inputs. "full" is the benchmark; "tiny" keeps
// the benchmark's own tests fast, which set it on the options directly.
type scale struct {
	Name        string
	BigVoters   int           // initial voters of the build/serve/update corpus
	SmallVoters int           // initial voters of the dedup corpus
	Years       int           // years of snapshot history
	Rounds      int           // delta files prepared for update rounds
	Stride      int           // documents per segment of the update store
	TraceReads  time.Duration // how long the traced serve group reads
}

const (
	deltaFrac = 0.01 // share of clusters one update round's delta file changes
	setupReps = 5    // ncserve start-ups per run behind setup_s
)

var scales = map[string]scale{
	"full": {Name: "full", BigVoters: 2000, SmallVoters: 500, Years: 13, Rounds: 16, Stride: 64, TraceReads: 3 * time.Second},
	"tiny": {Name: "tiny", BigVoters: 300, SmallVoters: 200, Years: 4, Rounds: 3, Stride: 16, TraceReads: 500 * time.Millisecond},
}

// Workload names. The sizes in the names are those of the full scale.
const (
	wlBuild  = "build-2k"
	wlDedup  = "dedup-500"
	wlUpdate = "update-2k"
)

var workloads = []string{wlBuild, wlDedup, wlUpdate}

// e2eMetrics are the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order. Each workload defines its operation (README.md).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"work_per_s", "1/s"},
	{"cpu_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

type metricDef struct{ Name, Unit string }

type options struct {
	root, bin, work string
	workload        string
	seed            int64
	seconds         int
	trace           bool
	scale           scale
	nproc           int
	src             string // sourceDigest of root: keys what the code under test produced
	perturb         bool   // flip every expected digest, so the identity gate must trip
	badNCIDs        int    // reads of unknown NCIDs mixed into the update load
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one workload run: its metrics, its identity checks and the
// facts about its inputs.
type report struct {
	Workload   string            `json:"workload"`
	Traced     bool              `json:"traced"`
	Metrics    map[string]metric `json:"metrics"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Identity   []identityCheck   `json:"identity"`
	Extra      map[string]any    `json:"extra,omitempty"`
	Descriptor map[string]any    `json:"descriptor,omitempty"`
	Env        map[string]any    `json:"env"`
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) extra(name string, v any) {
	if r.Extra == nil {
		r.Extra = map[string]any{}
	}
	r.Extra[name] = v
}

// correct holds when every identity check passed.
func (r *report) correct() bool {
	if len(r.Identity) == 0 {
		return false
	}
	for _, c := range r.Identity {
		if !c.OK {
			return false
		}
	}
	return true
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	o := options{scale: scales["full"]}
	var trace int
	flag.StringVar(&o.root, "root", ".", "repository root (the CLIs' source tree)")
	flag.StringVar(&o.bin, "bin", ".perfbench/bin", "directory holding the built CLIs")
	flag.StringVar(&o.work, "work", ".perfbench", "directory for cached inputs, scratch runs and results")
	flag.StringVar(&o.workload, "workload", wlBuild, "workload: "+strings.Join(workloads, ", ")+" or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 5, "measured seconds per run (at least one operation runs)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced in-process pipeline and reports per-layer metrics")
	flag.Parse()

	o.trace = trace == 1
	o.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(o.nproc)
	var err error
	if o.root, err = filepath.Abs(o.root); err != nil {
		log.Fatal(err)
	}
	if o.bin, err = filepath.Abs(o.bin); err != nil {
		log.Fatal(err)
	}
	if o.work, err = filepath.Abs(o.work); err != nil {
		log.Fatal(err)
	}
	if o.src, err = sourceDigest(o.root); err != nil {
		log.Fatal(err)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloads
	}
	for _, n := range names {
		if !isWorkload(n) {
			log.Fatalf("unknown -workload %q", n)
		}
	}

	// Every exit path stops the child processes and waits for them; a
	// run past its deadline is cancelled, which kills them too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	p := newProcs()
	res, err := runAll(ctx, &o, p, names, os.Stdout)
	p.stopAll()
	cancel()
	stop()
	if err != nil {
		log.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runDeadline bounds one invocation; the slowest full-scale run (a traced
// run on fresh inputs) takes about two minutes on two cores.
const runDeadline = 175 * time.Second

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// runAll runs the named workloads and folds their reports into the result
// line. A single workload's metrics keep their names; with several, each
// name is prefixed by its workload.
func runAll(ctx context.Context, o *options, p *procs, names []string, out io.Writer) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		r, err := runOne(ctx, o, p, name)
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		if err := writeReport(o, r); err != nil {
			return res, err
		}
		printReport(out, r)
		res.Correct = res.Correct && r.correct()
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, m := range r.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			res.Metrics[k] = m
		}
	}
	return res, nil
}

func runOne(ctx context.Context, o *options, p *procs, name string) (*report, error) {
	runs := filepath.Join(o.work, "runs")
	if err := os.RemoveAll(runs); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return nil, err
	}
	in := newInputs(o, p)
	var (
		r   *report
		err error
	)
	if o.trace {
		r, err = runTraced(ctx, o, p, in, name)
	} else {
		r, err = runWorkload(ctx, o, p, in, name)
	}
	if err != nil {
		return nil, err
	}
	r.Workload, r.Traced = name, o.trace
	if r.Descriptor, err = in.descriptor(ctx, name); err != nil {
		return nil, err
	}
	r.Env = envStamp(o)
	if !r.correct() {
		// A run whose outputs are wrong counts every operation as failed.
		r.Failed = r.Attempted
	}
	if r.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	// The result line carries failures as attempted and failed; the report
	// adds their ratio.
	r.extra("fail_frac", float64(r.Failed)/float64(r.Attempted))
	want := e2eMetrics
	if o.trace {
		want = layerMetrics
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			return nil, fmt.Errorf("metric %s (%s) not measured", m.Name, m.Unit)
		}
	}
	return r, nil
}

func runWorkload(ctx context.Context, o *options, p *procs, in *inputs, name string) (*report, error) {
	switch name {
	case wlBuild:
		return runBuild(ctx, o, p, in)
	case wlDedup:
		return runDedup(ctx, o, p, in)
	case wlUpdate:
		return runUpdate(ctx, o, p, in)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// writeReport saves the full report beside the other results of this
// checkout: .perfbench/results/<workload>-<scale>-s<seed>-t<trace>.json.
func writeReport(o *options, r *report) error {
	dir := filepath.Join(o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, resultName(o, r.Workload, r.Traced)+".json"), b, 0o644)
}

func resultName(o *options, workload string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return fmt.Sprintf("%s-%s-s%d-t%d", workload, o.scale.Name, o.seed, t)
}

// printReport prints every metric by name and unit, then the identity
// checks, for a human reader; the JSON result line follows at the end.
func printReport(w io.Writer, r *report) {
	mode := "end-to-end"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s)\n", r.Workload, mode)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, c := range r.Identity {
		state := "ok"
		if !c.OK {
			state = "MISMATCH"
		}
		fmt.Fprintf(w, "  identity %-26s %s (%s)\n", c.Name, state, c.Source)
	}
}
