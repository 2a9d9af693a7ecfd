package main

import (
	"context"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// The tests run every workload at the tiny scale on a second seed, against
// CLIs built once from the repository this module sits in.
const testSeed = 7

var testBin, testWork string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	testBin, testWork = filepath.Join(dir, "bin"), filepath.Join(dir, "work")
	build := exec.Command("go", "build", "-o", testBin+string(filepath.Separator),
		"./cmd/ncgen", "./cmd/ncimport", "./cmd/ncserve", "./cmd/ncdedup", "./cmd/ncstats")
	build.Dir = ".."
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if build.Run() == nil {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyOptions(t *testing.T) *options {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	src, err := sourceDigest(root)
	if err != nil {
		t.Fatal(err)
	}
	return &options{root: root, bin: testBin, work: testWork, seed: testSeed, seconds: 1,
		scale: scales["tiny"], nproc: runtime.NumCPU(), src: src}
}

func run(t *testing.T, o *options, workload string) result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	p := newProcs()
	defer p.stopAll()
	res, err := runAll(ctx, o, p, []string{workload}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestEveryWorkload checks that each workload, untraced and traced, passes
// its identity gate and reports every metric with its unit.
func TestEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := tinyOptions(t)
			o.trace = traced
			res := run(t, o, w)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2eMetrics
			if traced {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestPerturbedDigestTripsGate flips the expected digests: every workload
// must then report an incorrect run with all its operations failed.
func TestPerturbedDigestTripsGate(t *testing.T) {
	for _, w := range workloads {
		o := tinyOptions(t)
		o.perturb = true
		res := run(t, o, w)
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: perturbed digest gave correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestUnknownNCIDCounted mixes reads of unknown NCIDs into the reads beside
// the update rounds: each answers 404 and must count as failed.
func TestUnknownNCIDCounted(t *testing.T) {
	const bad = 5
	o := tinyOptions(t)
	o.badNCIDs = bad
	res := run(t, o, wlUpdate)
	if res.Failed != bad {
		t.Errorf("failed = %d, want %d", res.Failed, bad)
	}
	if !res.Correct {
		t.Errorf("unknown-NCID reads must not trip the identity gate")
	}
	var r report
	if err := readJSON(filepath.Join(testWork, "results", resultName(o, wlUpdate, false)+".json"), &r); err != nil {
		t.Fatal(err)
	}
	if f, _ := r.Extra["fail_frac"].(float64); f <= 0 {
		t.Errorf("fail_frac = %v, want > 0", r.Extra["fail_frac"])
	}
}
