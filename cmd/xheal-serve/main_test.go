package main

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// TestBadFlags: bad values fail the start, and the flags of the harness
// modes that moved to cmd/xheal-drill are no longer flags of the daemon.
func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-engine", "quantum"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown engine: exit %d, want 1", code)
	}
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown workload: exit %d, want 1", code)
	}
	for _, removed := range []string{
		"-smoke", "-loadgen", "-clients", "-events", "-delete-bias", "-attach", "-bench-out", "-slo-p99-tick-ms",
		"-scenario", "-scenario-out", "-soak-minutes", "-wave", "-rate", "-slo-max-queue",
		"-crashloop", "-crash-interval",
	} {
		if code := run([]string{removed, "1"}, &stdout, &stderr); code != 2 {
			t.Fatalf("%s: exit %d, want 2 (not a daemon flag)", removed, code)
		}
	}
}

// TestPprofFlag: -pprof exposes the profile index on the serving mux without
// disturbing the API routes.
func TestPprofFlag(t *testing.T) {
	d, err := buildDaemon(options{engine: "seq", wl: "regular", n: 16, kappa: 4, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.cleanup()
	defer d.srv.Close()

	h := d.handler(options{pprof: true})
	for path, want := range map[string]int{
		"/debug/pprof/": 200,
		"/v1/health":    200,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != want {
			t.Fatalf("GET %s: %d, want %d", path, rec.Code, want)
		}
	}
	// Without the flag the profiler is absent.
	h = d.handler(options{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code == 200 {
		t.Fatal("pprof exposed without -pprof")
	}
}
