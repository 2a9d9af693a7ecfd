package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minOps is the fewest operations a run of build, dedup or update makes,
// whatever --seconds says, so that each figure is a median of several.
const minOps = 3

// opMetrics sets the latency metric of a run's operations from their wall
// times net of host steal, and keeps every wall time, raw and net, beside it.
func (r *report) opMetrics(latMS, rawMS []float64) {
	r.set("p50_ms", "ms", median(latMS))
	r.extra("ops", len(latMS))
	r.extra("wall_ms", latMS)
	r.extra("raw_wall_ms", rawMS)
}

// verify runs `ncstats -verify` on a store and checks its exit status and
// the number of links in its provenance chain.
func verify(ctx context.Context, o *options, p *procs, db string, links int) identityCheck {
	st, err := runCLI(ctx, o, p, "ncstats", "-db", db, "-verify", "-verify-workers", strconv.Itoa(o.nproc))
	if err != nil {
		return check("ncstats-verify", false, err.Error())
	}
	m := regexp.MustCompile(`chain: (\d+) link`).FindSubmatch(st.Stdout)
	if m == nil || string(m[1]) != strconv.Itoa(links) {
		return check("ncstats-verify", false, fmt.Sprintf("want %d chain links: %s", links, st.Stdout))
	}
	return check("ncstats-verify", true, "")
}

// scoringMark starts the line ncimport prints once every snapshot is parsed
// and merged, as scoring begins.
const scoringMark = "computing plausibility scores"

// runBuild times `ncimport -scores` turning the corpus's snapshots into a
// stamped store. Set-up is the time until the input is loaded: parse+merge
// of every snapshot, up to the line that announces scoring.
func runBuild(ctx context.Context, o *options, p *procs, in *inputs) (*report, error) {
	r := &report{}
	corpus, err := in.corpus(ctx, o.scale.BigVoters)
	if err != nil {
		return nil, err
	}
	desc, err := in.descriptor(ctx, wlBuild)
	if err != nil {
		return nil, err
	}
	runs := filepath.Join(o.work, "runs")
	out := filepath.Join(runs, "build-store")
	var setup, lat, raw, cpu, rss []float64
	begin := time.Now()
	for len(lat) < minOps || time.Since(begin) < time.Duration(o.seconds)*time.Second {
		if err := os.RemoveAll(out); err != nil {
			return nil, err
		}
		st, err := runCLIMark(ctx, o, p, scoringMark, "ncimport", importArgs(o, corpus, out)...)
		if err != nil {
			return nil, err
		}
		if st.First == 0 {
			return nil, fmt.Errorf("ncimport printed no %q line", scoringMark)
		}
		setup = append(setup, st.First.Seconds())
		lat = append(lat, ms(st.Wall))
		raw = append(raw, ms(st.Raw))
		cpu = append(cpu, ms(st.CPU))
		rss = append(rss, st.RSSMB)
	}
	r.set("setup_s", "s", median(setup))
	r.Attempted = len(lat)
	r.opMetrics(lat, raw)
	rows := desc["rows"].(float64)
	r.set("work_per_s", "1/s", rows/(median(lat)/1000))
	r.set("cpu_ms", "ms", median(cpu))
	r.set("peak_rss_mb", "MB", median(rss))

	// Identity: the last produced store, read back.
	got, _, err := storeDigest(out, o.nproc)
	if err != nil {
		return nil, err
	}
	c, err := expect(o, in, wlBuild, got)
	if err != nil {
		return nil, err
	}
	r.Identity = append(r.Identity, c, verify(ctx, o, p, out, 1))
	bytes, err := dirBytes(out)
	if err != nil {
		return nil, err
	}
	r.extra("store_bytes", bytes)
	return r, nil
}

// startServers starts ncserve setupReps times on db and returns the median
// time to readiness with the last server still running; the others are
// stopped once ready.
func startServers(ctx context.Context, o *options, p *procs, db string) (*server, float64, error) {
	var setup []float64
	for i := 0; ; i++ {
		s, err := startServer(ctx, o, p, db)
		if err != nil {
			return nil, 0, err
		}
		setup = append(setup, s.ready.Seconds())
		if i == setupReps-1 {
			return s, median(setup), nil
		}
		s.kill()
	}
}

// runDedup times `ncdedup -db -stream -curves` (SNM-5, w=20, all three
// measures). Set-up is the time to its first output line, printed once the
// labeled dataset is derived from the store, in each run.
func runDedup(ctx context.Context, o *options, p *procs, in *inputs) (*report, error) {
	r := &report{}
	db, err := in.store(ctx, o.scale.SmallVoters, 0)
	if err != nil {
		return nil, err
	}
	args := []string{"-db", db, "-stream", "-workers", strconv.Itoa(o.nproc),
		"-store-workers", strconv.Itoa(o.nproc), "-curves"}
	var setup, lat, raw, cpu, rss []float64
	var out []byte
	begin := time.Now()
	for len(lat) < minOps || time.Since(begin) < time.Duration(o.seconds)*time.Second {
		st, err := runCLI(ctx, o, p, "ncdedup", args...)
		if err != nil {
			return nil, err
		}
		setup = append(setup, st.First.Seconds())
		lat = append(lat, ms(st.Wall))
		raw = append(raw, ms(st.Raw))
		cpu = append(cpu, ms(st.CPU))
		rss = append(rss, st.RSSMB)
		if out != nil && !bytes.Equal(out, st.Stdout) {
			return nil, fmt.Errorf("ncdedup output differs between runs of one seed")
		}
		out = st.Stdout
	}
	r.set("setup_s", "s", median(setup))
	r.Attempted = len(lat)
	r.opMetrics(lat, raw)
	m := regexp.MustCompile(`blocking: (\d+) unique candidate pairs`).FindSubmatch(out)
	if m == nil {
		return nil, fmt.Errorf("ncdedup printed no blocking summary")
	}
	unique, _ := strconv.Atoi(string(m[1]))
	r.set("work_per_s", "1/s", float64(3*unique)/(median(lat)/1000))
	r.set("cpu_ms", "ms", median(cpu))
	r.set("peak_rss_mb", "MB", median(rss))
	c, err := expect(o, in, wlDedup, textDigest(dedupLines(out)))
	if err != nil {
		return nil, err
	}
	r.Identity = append(r.Identity, c)
	return r, nil
}

// runUpdate serves a stride-layout copy of the store to max(1, nproc-1)
// closed-loop readers while the benchmark runs update rounds: `ncimport
// -delta` on a prepared delta file, SIGHUP, and a wait until the next
// generation is served.
func runUpdate(ctx context.Context, o *options, p *procs, in *inputs) (*report, error) {
	r := &report{}
	base, err := in.store(ctx, o.scale.BigVoters, o.scale.Stride)
	if err != nil {
		return nil, err
	}
	deltas, err := in.deltas(ctx)
	if err != nil {
		return nil, err
	}
	pool, err := in.ncids(base)
	if err != nil {
		return nil, err
	}
	runs := filepath.Join(o.work, "runs")
	db := filepath.Join(runs, "update-store")
	if err := copyDir(base, db); err != nil {
		return nil, err
	}
	s, setup, err := startServers(ctx, o, p, db)
	if err != nil {
		return nil, err
	}
	defer s.kill()
	r.set("setup_s", "s", setup)
	readyRSS, err := procRSSMB(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	r.extra("ready_rss_mb", readyRSS)

	stop := make(chan struct{})
	loaded := make(chan loadResult, 1)
	go func() {
		loaded <- runLoad(ctx, s.base, max(1, o.nproc-1), 0, updateThink, stop, o.seed, pool, o.badNCIDs)
	}()
	// The store as it stands after minOps rounds is copied aside for the
	// identity gate, so the digest checked never depends on how many
	// rounds fit into --seconds. The copy is not counted in the run time.
	checked := filepath.Join(runs, "update-checked")
	var lat, raw, cpu []float64
	var rss float64
	var roundErr error
	begin := time.Now()
	for k := 0; k < len(deltas.Rounds) && (k < minOps || time.Since(begin) < time.Duration(o.seconds)*time.Second); k++ {
		steal := hostSteal()
		start := time.Now()
		st, err := runCLI(ctx, o, p, "ncimport", "-delta", "-stride", strconv.Itoa(o.scale.Stride),
			"-scores", "-in", deltas.Rounds[k], "-db", db,
			"-workers", strconv.Itoa(o.nproc), "-store-workers", strconv.Itoa(o.nproc))
		if err != nil {
			roundErr = err
			break
		}
		c0, err := procCPU(s.cmd.Process.Pid)
		if err != nil {
			roundErr = err
			break
		}
		if err := s.cmd.Process.Signal(syscall.SIGHUP); err != nil {
			roundErr = err
			break
		}
		if err := waitGeneration(ctx, s.base, uint64(k+2)); err != nil {
			roundErr = err
			break
		}
		wall := time.Since(start)
		lat = append(lat, ms(netWall(o, wall, hostSteal()-steal)))
		raw = append(raw, ms(wall))
		c1, err := procCPU(s.cmd.Process.Pid)
		if err != nil {
			roundErr = err
			break
		}
		cpu = append(cpu, ms(st.CPU+c1-c0))
		rss = max(rss, st.RSSMB)
		if k+1 == minOps {
			copied := time.Now()
			if roundErr = copyDir(db, checked); roundErr != nil {
				break
			}
			begin = begin.Add(time.Since(copied))
		}
	}
	close(stop)
	reads := <-loaded
	if roundErr != nil {
		return nil, roundErr
	}
	if err := s.stop(); err != nil {
		return nil, err
	}
	rounds := len(lat)
	r.Attempted, r.Failed = rounds+reads.Attempted, reads.Failed
	r.opMetrics(lat, raw)
	// Work per second is delta rows applied per second of a round; the
	// reads beside the rounds are reported in the extra figures, since
	// their rate swings with how the host schedules the import against them.
	rows := 0
	for _, n := range deltas.Rows[:rounds] {
		rows += n
	}
	r.set("work_per_s", "1/s", float64(rows)/float64(rounds)/(median(lat)/1000))
	r.set("cpu_ms", "ms", median(cpu))
	r.set("peak_rss_mb", "MB", max(rss, s.RSSMB))
	r.extra("rounds", rounds)
	readP50, readP90, readP99, readsPerSec := reads.windowMedians(o.nproc)
	r.extra("read_p50_ms", readP50)
	r.extra("read_p90_ms", readP90)
	r.extra("read_p99_ms", readP99)
	r.extra("reads_per_s", readsPerSec)
	r.extra("reads", reads.Attempted)
	r.extra("server_peak_rss_mb", s.RSSMB)

	// Identity: the store after minOps rounds, read back, with its chain of
	// one link for the full import plus one per round; and the chain of the
	// store after the last round.
	got, _, err := storeDigest(checked, o.nproc)
	if err != nil {
		return nil, err
	}
	c, err := expect(o, in, fmt.Sprintf("%s/r%02d", wlUpdate, minOps), got)
	if err != nil {
		return nil, err
	}
	last := verify(ctx, o, p, db, 1+rounds)
	last.Name += "-last"
	r.Identity = append(r.Identity, c, verify(ctx, o, p, checked, 1+minOps), last)
	return r, nil
}

// copyDir copies a store directory (regular files only).
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, e.Name())
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// updateThink is how long the update-2k reader works on a reply before its
// next request. Unpaced, it takes as much CPU as the scheduler gives it, and
// how the host splits the cores between reads and the import moved the
// round time by 15% from run to run.
const updateThink = time.Millisecond
