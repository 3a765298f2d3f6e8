package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xheal/xheal/internal/server"
)

const (
	// pollEvery is the health poller's fixed schedule: 50 Hz, open loop.
	pollEvery = 20 * time.Millisecond
	// requestTimeout bounds one request; a request that fails or times out is
	// recorded at this latency, so it counts as missing every percentile.
	requestTimeout = 30 * time.Second
)

// window is what driving one schedule against one daemon observed. The load
// is the same in both passes: one closed-loop writer (an overlay node waits
// for its ack before it reports the next change) and one open-loop health
// poller (operators and probes arrive on their own clock), each on its own
// connection — the host has two cores, and a third connection would measure
// the load generator queueing behind itself.
type window struct {
	wallS    float64
	ackMS    []float64 // POST → 200 per measured POST
	healthMS []float64 // poll due time → reply, per poll
	genLagMS []float64 // poll due time → actually sent
	events   int       // events acknowledged inside the window
	failed   int       // POSTs and polls that failed
	firstErr error     // first request failure, for the report
}

func (w *window) attempted() int { return len(w.ackMS) + len(w.healthMS) }

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// newClient returns a client that owns exactly one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// post sends one schedule body and requires 200 with applied = sent.
func post(c *http.Client, base string, body []byte, sent int) error {
	resp, err := c.Post(base+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var ir server.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		return fmt.Errorf("POST /v1/events: decode reply: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	if resp.StatusCode != http.StatusOK || ir.Applied != sent {
		return fmt.Errorf("POST /v1/events: status %d, applied %d of %d: %s", resp.StatusCode, ir.Applied, sent, ir.Error)
	}
	return nil
}

// getHealth fetches and decodes one health snapshot.
func getHealth(c *http.Client, base string) (server.Health, error) {
	var h server.Health
	resp, err := c.Get(base + "/v1/health")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("GET /v1/health: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("GET /v1/health: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return h, nil
}

// awaitHealth polls until ready accepts a snapshot, and returns it.
func awaitHealth(ctx context.Context, c *http.Client, base string, ready func(server.Health) bool) (server.Health, error) {
	var lastErr error
	for {
		h, err := getHealth(c, base)
		if err == nil && ready(h) {
			return h, nil
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return h, fmt.Errorf("daemon at %s not ready: %w (last poll: %v)", base, ctx.Err(), lastErr)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// warmed is the readiness the window waits for: the first λ₂ and stretch
// refresh have landed, so the cold Lanczos run cannot fall inside it.
func warmed(h server.Health) bool {
	return h.Live != nil && h.Live.Lambda2Valid && h.Live.StretchValid
}

// drive sends the schedule: the warm-up POSTs unmeasured, then the measured
// POSTs while the poller polls /v1/health on its fixed schedule. onOpen and
// onClose run at the window's edges (the passes read their own clocks and
// counters there).
func drive(base string, s *schedule, onOpen, onClose func()) (*window, error) {
	writer, poller := newClient(), newClient()
	defer writer.CloseIdleConnections()
	defer poller.CloseIdleConnections()

	for i := 0; i < warmupPosts; i++ {
		if err := post(writer, base, s.bodies[i], s.sent[i]); err != nil {
			return nil, fmt.Errorf("warm-up POST %d: %w", i, err)
		}
	}

	w := &window{ackMS: make([]float64, 0, len(s.bodies)-warmupPosts)}
	var mu sync.Mutex // guards w.fail between the two loops
	var closed atomic.Bool
	var polls sync.WaitGroup

	onOpen()
	start := time.Now()
	polls.Add(1)
	go func() {
		defer polls.Done()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * pollEvery)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			// Only polls due inside the window are sent; each is timed from
			// when it was due, so a stall is charged to every poll it delays.
			if closed.Load() {
				return
			}
			lag := time.Since(due)
			h, err := getHealth(poller, base)
			lat := time.Since(due)
			if err == nil && h.Status != "ok" {
				err = fmt.Errorf("GET /v1/health: status %q (log_error %q)", h.Status, h.LogError)
			}
			if err != nil {
				lat = requestTimeout
				mu.Lock()
				w.fail(err)
				mu.Unlock()
			}
			w.genLagMS = append(w.genLagMS, ms(lag))
			w.healthMS = append(w.healthMS, ms(lat))
		}
	}()
	for i := warmupPosts; i < len(s.bodies); i++ {
		t0 := time.Now()
		err := post(writer, base, s.bodies[i], s.sent[i])
		lat := time.Since(t0)
		if err != nil {
			lat = requestTimeout
			mu.Lock()
			w.fail(fmt.Errorf("POST %d: %w", i, err))
			mu.Unlock()
		} else {
			w.events += s.sent[i]
		}
		w.ackMS = append(w.ackMS, ms(lat))
	}
	w.wallS = time.Since(start).Seconds()
	closed.Store(true)
	onClose()
	polls.Wait()
	return w, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
