// Package loadgen drives open-loop synthetic traffic at a photon render
// farm and reports the latency distribution.
//
// Open-loop means requests are fired on a fixed schedule — one every
// 1/rate seconds — whether or not earlier requests have completed. This
// is the honest way to measure a server under load: a closed-loop driver
// (wait for each response, then send the next) slows down exactly when
// the server does, which hides overload behind a gentler arrival rate
// and understates tail latency (coordinated omission). An open-loop
// driver keeps arriving like real independent clients do, so queueing
// delay, shed 429s and tail blowup all land in the numbers.
//
// The report carries p50/p90/p99/p999 over successful requests, goodput
// (successes per second of wall time), and the shed rate.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Config parameterizes one open-loop run.
type Config struct {
	// BaseURL is the farm entry point (router or single replica), e.g.
	// http://localhost:8080.
	BaseURL string
	// Paths is the request mix, cycled round-robin on the arrival
	// schedule (e.g. "/render?scene=gen:office/seed=1&quality=probe").
	Paths []string
	// Rate is the arrival rate in requests per second.
	Rate float64
	// Duration is how long arrivals are generated.
	Duration time.Duration
	// Timeout bounds each request (default 30s).
	Timeout time.Duration
	// Warm, when true, fetches every distinct path once before the
	// measured run so cache fills (which may simulate a scene) are not
	// mixed into the serving distribution.
	Warm bool
}

// Report is the result of one run. All latency fields are milliseconds
// over successful (2xx) requests.
type Report struct {
	Label      string  `json:"label,omitempty"`
	Sent       int64   `json:"sent"`
	OK         int64   `json:"ok"`
	Shed       int64   `json:"shed"`
	Errors     int64   `json:"errors"`
	ShedRate   float64 `json:"shed_rate"`
	GoodputRPS float64 `json:"goodput_rps"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	P999Ms     float64 `json:"p999_ms"`
	MaxMs      float64 `json:"max_ms"`
	RateRPS    float64 `json:"offered_rps"`
	DurationS  float64 `json:"duration_s"`
}

// Run drives the configured open-loop workload and summarizes it. It
// returns early (with whatever was measured) if ctx is cancelled.
func Run(ctx context.Context, cfg Config) (Report, error) {
	if cfg.BaseURL == "" || len(cfg.Paths) == 0 {
		return Report{}, fmt.Errorf("loadgen: BaseURL and at least one path are required")
	}
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return Report{}, fmt.Errorf("loadgen: Rate and Duration must be positive")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	client := &http.Client{Timeout: cfg.Timeout}

	if cfg.Warm {
		seen := map[string]bool{}
		for _, p := range cfg.Paths {
			if seen[p] {
				continue
			}
			seen[p] = true
			resp, err := client.Get(cfg.BaseURL + p)
			if err != nil {
				return Report{}, fmt.Errorf("loadgen: warming %s: %v", p, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	type outcome struct {
		latency time.Duration
		status  int // 0 = transport error
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
		wg       sync.WaitGroup
	)
	fire := func(path string) {
		defer wg.Done()
		start := time.Now()
		resp, err := client.Get(cfg.BaseURL + path)
		o := outcome{latency: time.Since(start)}
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			o.status = resp.StatusCode
		}
		mu.Lock()
		outcomes = append(outcomes, o)
		mu.Unlock()
	}

	// The arrival schedule: one request every interval, round-robin over
	// the mix, never waiting on completions (open loop).
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.NewTimer(cfg.Duration)
	defer deadline.Stop()
	begin := time.Now()
	var sent int64
loop:
	for i := 0; ; i++ {
		select {
		case <-ticker.C:
			wg.Add(1)
			sent++
			go fire(cfg.Paths[i%len(cfg.Paths)])
		case <-deadline.C:
			break loop
		case <-ctx.Done():
			break loop
		}
	}
	wg.Wait()
	elapsed := time.Since(begin)

	return summarize(cfg, sent, elapsed, func(yield func(time.Duration, int)) {
		for _, o := range outcomes {
			yield(o.latency, o.status)
		}
	}), nil
}

// summarize folds outcomes into a Report. Split from Run so the
// percentile and accounting arithmetic is testable with exact inputs.
func summarize(cfg Config, sent int64, elapsed time.Duration,
	each func(yield func(latency time.Duration, status int))) Report {
	var ok, shed, errs int64
	var okLat []time.Duration
	each(func(l time.Duration, status int) {
		switch {
		case status >= 200 && status < 300:
			ok++
			okLat = append(okLat, l)
		case status == http.StatusTooManyRequests:
			shed++
		default:
			errs++
		}
	})
	r := Report{
		Sent:      sent,
		OK:        ok,
		Shed:      shed,
		Errors:    errs,
		RateRPS:   cfg.Rate,
		DurationS: elapsed.Seconds(),
	}
	if done := ok + shed + errs; done > 0 {
		r.ShedRate = float64(shed) / float64(done)
	}
	if elapsed > 0 {
		r.GoodputRPS = float64(ok) / elapsed.Seconds()
	}
	if len(okLat) > 0 {
		sort.Slice(okLat, func(i, j int) bool { return okLat[i] < okLat[j] })
		r.P50Ms = percentileMs(okLat, 0.50)
		r.P90Ms = percentileMs(okLat, 0.90)
		r.P99Ms = percentileMs(okLat, 0.99)
		r.P999Ms = percentileMs(okLat, 0.999)
		r.MaxMs = float64(okLat[len(okLat)-1]) / float64(time.Millisecond)
	}
	return r
}

// percentileMs returns the q-quantile of sorted latencies in
// milliseconds, using the nearest-rank method: the smallest value with at
// least q·n observations at or below it. Nearest-rank reports an actually
// observed latency (no interpolation inventing values between samples).
func percentileMs(sorted []time.Duration, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1]) / float64(time.Millisecond)
}
