package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs tracks every child process the benchmark starts, so that every
// exit path can stop them and wait for them.
type procs struct {
	mu   sync.Mutex
	live map[*exec.Cmd]chan struct{} // closed once the process is reaped
}

func newProcs() *procs { return &procs{live: map[*exec.Cmd]chan struct{}{}} }

// start launches cmd and returns a function that waits for it exactly once.
func (p *procs) start(cmd *exec.Cmd) (wait func() error, err error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan struct{})
	p.mu.Lock()
	p.live[cmd] = done
	p.mu.Unlock()
	var once sync.Once
	var werr error
	return func() error {
		once.Do(func() {
			werr = cmd.Wait()
			p.mu.Lock()
			delete(p.live, cmd)
			p.mu.Unlock()
			close(done)
		})
		return werr
	}, nil
}

// stopAll kills every process still running and waits until each has been
// reaped by its owner or, if no owner is waiting, here.
func (p *procs) stopAll() {
	p.mu.Lock()
	live := make(map[*exec.Cmd]chan struct{}, len(p.live))
	for c, d := range p.live {
		live[c] = d
	}
	p.mu.Unlock()
	for c, done := range live {
		_ = c.Process.Kill() // the process may already have exited
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_, _ = c.Process.Wait() // reap it ourselves; the owner is gone
		}
	}
}

// command builds a CLI invocation with GOMAXPROCS pinned to nproc.
func command(ctx context.Context, o *options, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, filepath.Join(o.bin, name), args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(o.nproc))
	cmd.Dir = o.work
	return cmd
}

// runStats describes one finished CLI process.
type runStats struct {
	Wall   time.Duration // net of host steal, see netWall
	Raw    time.Duration // wall time as measured
	First  time.Duration // until the marked line of standard output, net of steal
	CPU    time.Duration // user + system
	RSSMB  float64       // peak resident set (rusage maxrss)
	Stdout []byte
}

// runCLI runs one CLI to completion and measures it. Standard error is kept
// only for the error message of a failed run.
func runCLI(ctx context.Context, o *options, p *procs, name string, args ...string) (runStats, error) {
	return runCLIMark(ctx, o, p, "", name, args...)
}

// runCLIMark is runCLI that also times the first output line starting with
// mark ("" marks the first line of all).
func runCLIMark(ctx context.Context, o *options, p *procs, mark, name string, args ...string) (runStats, error) {
	cmd := command(ctx, o, name, args...)
	steal := hostSteal()
	out := &firstLineWriter{start: time.Now(), mark: []byte(mark)}
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = out, &stderr
	wait, err := p.start(cmd)
	if err != nil {
		return runStats{}, err
	}
	err = wait()
	raw := time.Since(out.start)
	st := runStats{Wall: netWall(o, raw, hostSteal()-steal), Raw: raw, Stdout: out.buf.Bytes()}
	st.First = netWall(o, out.first, out.firstSteal-steal)
	if err != nil {
		return st, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, tail(stderr.String()))
	}
	st.CPU, st.RSSMB = usage(cmd.ProcessState)
	return st, nil
}

// firstLineWriter buffers output and notes when the first complete line
// starting with mark arrived, with the host steal at that moment. os/exec
// copies a non-file Stdout on one goroutine and finishes before Wait
// returns, so no lock is needed.
type firstLineWriter struct {
	start      time.Time
	mark       []byte
	first      time.Duration
	firstSteal time.Duration
	buf        bytes.Buffer
}

func (w *firstLineWriter) Write(b []byte) (int, error) {
	n, err := w.buf.Write(b)
	if w.first == 0 && w.marked() {
		w.first = time.Since(w.start)
		w.firstSteal = hostSteal()
	}
	return n, err
}

// marked reports whether the buffer holds a complete line starting with mark.
func (w *firstLineWriter) marked() bool {
	for rest := w.buf.Bytes(); ; {
		line, after, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			return false
		}
		if bytes.HasPrefix(line, w.mark) {
			return true
		}
		rest = after
	}
}

func usage(ps *os.ProcessState) (cpu time.Duration, rssMB float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return ps.UserTime() + ps.SystemTime(), 0
	}
	return ps.UserTime() + ps.SystemTime(), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func tail(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 600 {
		s = "..." + s[len(s)-600:]
	}
	return s
}

// server is one running ncserve process.
type server struct {
	cmd   *exec.Cmd
	wait  func() error
	base  string        // http://127.0.0.1:port
	ready time.Duration // net of host steal
	RSSMB float64       // peak resident set, set by stop
}

// startServer launches ncserve on db with default flags apart from the
// worker count and waits until /v1/healthz answers 200. Its request log goes
// to a discarded sink.
func startServer(ctx context.Context, o *options, p *procs, db string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := command(ctx, o, "ncserve", "-db", db, "-addr", addr, "-store-workers", strconv.Itoa(o.nproc))
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	steal := hostSteal()
	start := time.Now()
	wait, err := p.start(cmd)
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, wait: wait, base: "http://" + addr}
	exited := make(chan struct{})
	go func() {
		_ = wait() // reaped here; stop reads the status after exited closes
		close(exited)
	}()
	s.wait = func() error { <-exited; return nil }
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := client.Get(s.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = netWall(o, time.Since(start), hostSteal()-steal)
				return s, nil
			}
		}
		select {
		case <-exited:
			return nil, fmt.Errorf("ncserve exited before it was ready")
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			<-exited
			return nil, errors.New("ncserve not ready within 90s")
		}
	}
}

// stop sends SIGTERM, waits for the drain and records the process's peak
// RSS over its whole life.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { _ = s.wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return errors.New("ncserve did not drain within 20s")
	}
	_, s.RSSMB = usage(s.cmd.ProcessState)
	if !s.cmd.ProcessState.Success() {
		return fmt.Errorf("ncserve: %v", s.cmd.ProcessState)
	}
	return nil
}

// kill ends a server whose exit status does not matter.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.wait()
}

// procCPU reads a live process's user+system CPU from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, in clock ticks.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// procRSSMB reads a live process's current resident set from
// /proc/<pid>/status.
func procRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// hostSteal is the CPU time the hypervisor has taken from this machine's
// CPUs since boot (the steal column of /proc/stat), or 0 where it is not
// reported.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / clockTicks
}

// netWall removes from a wall time the share of host steal that fell in it:
// the CPU time the hypervisor took from the machine during the interval,
// spread over its nproc CPUs. On a host that steals nothing it is the wall
// time itself. On a shared host the steal varies by tens of percent from
// minute to minute and no change to the program can move it.
func netWall(o *options, wall, steal time.Duration) time.Duration {
	return max(wall-steal/time.Duration(o.nproc), 0)
}
