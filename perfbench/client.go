package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The read mix of the update-2k reader and the traced serve group, in
// percent: point lookups dominate, as for the Compass-style callers the
// paper describes, with aggregate and score-range reads beside them.
var readMix = []struct {
	route  string
	weight int
}{
	{"records", 50},
	{"cluster", 10},
	{"summary", 20},
	{"query", 10},
	{"stats", 10},
}

// The two size filters of the summary reads.
var summaryFilters = []string{"?minSize=2", "?minSize=3&maxSize=8"}

// reader is one closed-loop client: it sends its next request only after
// the previous reply was read in full, over one keep-alive connection.
type reader struct {
	base   string
	client *http.Client
	rng    *rand.Rand
	pick   func() string // next NCID, skewed
	cursor string        // next page of the score-range walk
	n      int           // requests sent
	bad    int           // unknown-NCID reads still to send
}

func newReader(base string, seed int64, pool []string, bad int) *reader {
	rng := rand.New(rand.NewSource(seed))
	// A Zipf skew over a seeded permutation of the pool: a head of hot
	// NCIDs plus a long tail beyond the response cache's reach.
	perm := rng.Perm(len(pool))
	zipf := rand.NewZipf(rng, 1.1, 8, uint64(len(pool)-1))
	return &reader{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
		rng:  rng,
		pick: func() string { return pool[perm[zipf.Uint64()]] },
		bad:  bad,
	}
}

func (r *reader) close() { r.client.CloseIdleConnections() }

// next chooses the next request's route label and path.
func (r *reader) next() (route, path string) {
	if r.bad > 0 {
		r.bad--
		return "records", "/v1/records/UNKNOWN-" + strconv.Itoa(r.bad)
	}
	w := r.rng.Intn(100)
	for _, m := range readMix {
		if w < m.weight {
			route = m.route
			break
		}
		w -= m.weight
	}
	r.n++
	switch route {
	case "records":
		return route, "/v1/records/" + url.PathEscape(r.pick())
	case "cluster":
		return route, "/v1/clusters/" + url.PathEscape(r.pick())
	case "summary":
		return route, "/v1/clusters/summary" + summaryFilters[r.n%len(summaryFilters)]
	case "query":
		q := "/v1/clusters?score=heterogeneity&min=0.1&limit=20"
		if r.cursor != "" {
			q += "&cursor=" + url.QueryEscape(r.cursor)
		}
		return route, q
	default:
		if r.n%2 == 0 {
			return route, "/v1/stats"
		}
		return route, "/v1/histogram"
	}
}

// do sends one read and reports its latency and whether it succeeded: a
// transport error or a status of 400 or above is a failure.
func (r *reader) do(route, path string) (time.Duration, bool) {
	start := time.Now()
	resp, err := r.client.Get(r.base + path)
	if err != nil {
		return time.Since(start), false
	}
	var body []byte
	if route == "query" {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	d := time.Since(start)
	if err != nil || resp.StatusCode >= 400 {
		if route == "query" {
			r.cursor = ""
		}
		return d, false
	}
	if route == "query" {
		var env struct {
			Meta struct {
				NextCursor string `json:"nextCursor"`
			} `json:"meta"`
		}
		if json.Unmarshal(body, &env) != nil {
			r.cursor = ""
			return d, false
		}
		r.cursor = env.Meta.NextCursor
	}
	return d, true
}

// sample is one read: when it completed, since the load began, and how
// long it took.
type sample struct {
	at    time.Duration
	latMS float64
	ok    bool
}

// loadResult aggregates a closed-loop run. Besides the whole run it keeps
// one-second windows: a median over windows is not moved by a stall of the
// shared host that hits one or two of them.
type loadResult struct {
	Attempted int
	Failed    int
	Windows   []window // complete one-second windows only
}

type window struct {
	P50MS, P90MS, P99MS float64
	Completed           int     // successful reads
	StealS              float64 // CPU time the host stole in the window
}

// windowMedians returns the median over windows of p50, p90 and p99, and of
// completed reads per second of CPU capacity the host left the machine (the
// window's reads ÷ (1 − stolen CPU time ÷ nproc)).
func (l loadResult) windowMedians(nproc int) (p50, p90, p99, perSec float64) {
	var a, b, c, d []float64
	for _, w := range l.Windows {
		a, b, c = append(a, w.P50MS), append(b, w.P90MS), append(c, w.P99MS)
		left := max(1-w.StealS/float64(nproc), 0.05)
		d = append(d, float64(w.Completed)/left)
	}
	return median(a), median(b), median(c), median(d)
}

// runLoad drives clients closed-loop readers until stop is closed or the
// duration passes (a zero duration waits for stop alone). Each reader waits
// think after every reply before its next request.
func runLoad(ctx context.Context, base string, clients int, dur, think time.Duration, stop <-chan struct{}, seed int64, pool []string, bad int) loadResult {
	var (
		mu  sync.Mutex
		all []sample
		wg  sync.WaitGroup
	)
	var deadline <-chan time.Time
	if dur > 0 {
		t := time.NewTimer(dur)
		defer t.Stop()
		deadline = t.C
	}
	done := make(chan struct{})
	start := time.Now()
	// Host steal at every window boundary, sampled on a ticker.
	steals := []time.Duration{hostSteal()}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for c := 0; c < clients; c++ {
		b := 0
		if c == 0 {
			b = bad
		}
		r := newReader(base, seed*1000+int64(c), pool, b)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.close()
			var mine []sample
			for {
				select {
				case <-done:
					mu.Lock()
					all = append(all, mine...)
					mu.Unlock()
					return
				default:
				}
				d, ok := r.do(r.next())
				mine = append(mine, sample{at: time.Since(start), latMS: float64(d) / float64(time.Millisecond), ok: ok})
				if think > 0 {
					time.Sleep(think)
				}
			}
		}()
	}
wait:
	for {
		select {
		case <-tick.C:
			steals = append(steals, hostSteal())
		case <-deadline:
			break wait
		case <-stop:
			break wait
		case <-ctx.Done():
			break wait
		}
	}
	close(done)
	wg.Wait()
	res := loadResult{Attempted: len(all)}
	byWindow := make([][]float64, min(int(time.Since(start)/time.Second), len(steals)-1))
	completed := make([]int, len(byWindow))
	for _, s := range all {
		if !s.ok {
			res.Failed++
		}
		if w := int(s.at / time.Second); w < len(byWindow) {
			byWindow[w] = append(byWindow[w], s.latMS)
			if s.ok {
				completed[w]++
			}
		}
	}
	for i, lat := range byWindow {
		sort.Float64s(lat)
		res.Windows = append(res.Windows, window{P50MS: percentile(lat, 0.5), P90MS: percentile(lat, 0.9),
			P99MS: percentile(lat, 0.99), Completed: completed[i], StealS: (steals[i+1] - steals[i]).Seconds()})
	}
	return res
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p+0.999999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// waitGeneration polls /v1/healthz until the served generation reaches gen.
func waitGeneration(ctx context.Context, base string, gen uint64) error {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := client.Get(base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			g, _ := strconv.ParseUint(resp.Header.Get("X-Dataset-Generation"), 10, 64)
			if g >= gen {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("generation %d not served within 90s", gen)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}
