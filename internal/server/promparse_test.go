package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/dist"
	"github.com/xheal/xheal/internal/obs"
)

// This file is a strict Prometheus text-exposition-format (version 0.0.4)
// parser used to validate every series the daemon exposes: header placement
// and uniqueness, metric-name and label syntax, escape correctness, value
// parseability, series uniqueness, and histogram shape (cumulative bucket
// monotonicity, +Inf == _count, _sum/_count presence).

var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promFamily struct {
	name, help, typ string
	samples         []promSample
}

// baseFamily maps a sample name to the family it belongs to: histogram
// component suffixes fold into their base name.
func baseFamily(name string, families map[string]*promFamily) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if f, ok := families[base]; ok && f.typ == "histogram" {
				return base
			}
		}
	}
	return name
}

// parsePromText parses and structurally validates one exposition payload.
func parsePromText(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := make(map[string]*promFamily)
	seen := make(map[string]bool) // duplicate-series detection
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", lineNo, line)
			}
			name := parts[2]
			if !promNameRe.MatchString(name) {
				t.Fatalf("line %d: bad metric name %q", lineNo, name)
			}
			f := families[name]
			if f == nil {
				f = &promFamily{name: name}
				families[name] = f
			}
			switch parts[1] {
			case "HELP":
				if f.help != "" {
					t.Fatalf("line %d: duplicate HELP for %s", lineNo, name)
				}
				f.help = parts[3]
			case "TYPE":
				if f.typ != "" {
					t.Fatalf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if len(f.samples) > 0 {
					t.Fatalf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.typ = parts[3]
				default:
					t.Fatalf("line %d: unknown TYPE %q", lineNo, parts[3])
				}
			}
			continue
		}
		s := parsePromSample(t, lineNo, line)
		key := s.name + "|" + canonicalLabels(s.labels)
		if seen[key] {
			t.Fatalf("line %d: duplicate series %s%v", lineNo, s.name, s.labels)
		}
		seen[key] = true
		base := baseFamily(s.name, families)
		f := families[base]
		if f == nil || f.typ == "" || f.help == "" {
			t.Fatalf("line %d: sample %s before HELP/TYPE of family %s", lineNo, s.name, base)
		}
		f.samples = append(f.samples, s)
	}
	return families
}

// parsePromSample parses one sample line: name[{labels}] value.
func parsePromSample(t *testing.T, lineNo int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value separator in %q", lineNo, line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if !promNameRe.MatchString(s.name) {
		t.Fatalf("line %d: bad sample name %q", lineNo, s.name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			t.Fatalf("line %d: unterminated label set in %q", lineNo, line)
		}
		parseLabelSet(t, lineNo, rest[1:end], s.labels)
		rest = rest[end+1:]
	}
	rest = strings.TrimPrefix(rest, " ")
	if strings.ContainsAny(rest, " ") {
		// A second space would start a timestamp; the daemon never emits one.
		t.Fatalf("line %d: unexpected timestamp or trailing content %q", lineNo, rest)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil && rest != "+Inf" && rest != "-Inf" && rest != "NaN" {
		t.Fatalf("line %d: unparseable value %q: %v", lineNo, rest, err)
	}
	s.value = v
	return s
}

// parseLabelSet parses `k="v",k2="v2"` enforcing the exact escape set the
// format allows in label values: \\, \", \n.
func parseLabelSet(t *testing.T, lineNo int, in string, out map[string]string) {
	t.Helper()
	for len(in) > 0 {
		eq := strings.Index(in, "=")
		if eq < 0 {
			t.Fatalf("line %d: label without '=' in %q", lineNo, in)
		}
		key := in[:eq]
		if !promNameRe.MatchString(key) {
			t.Fatalf("line %d: bad label name %q", lineNo, key)
		}
		if eq+1 >= len(in) || in[eq+1] != '"' {
			t.Fatalf("line %d: unquoted label value after %q", lineNo, key)
		}
		in = in[eq+2:]
		var val strings.Builder
		closed := false
	scan:
		for i := 0; i < len(in); i++ {
			switch in[i] {
			case '\\':
				if i+1 >= len(in) {
					t.Fatalf("line %d: dangling escape in label %q", lineNo, key)
				}
				switch in[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("line %d: invalid escape \\%c in label %q", lineNo, in[i+1], key)
				}
				i++
			case '"':
				if _, ok := out[key]; ok {
					t.Fatalf("line %d: duplicate label %q", lineNo, key)
				}
				out[key] = val.String()
				in = in[i+1:]
				closed = true
				break scan
			default:
				val.WriteByte(in[i])
			}
		}
		if !closed {
			t.Fatalf("line %d: unterminated label value for %q", lineNo, key)
		}
		in = strings.TrimPrefix(in, ",")
	}
}

func canonicalLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// validateHistogram checks one histogram family's shape.
func validateHistogram(t *testing.T, f *promFamily) {
	t.Helper()
	// Group by non-le labelset: each group is one histogram series.
	type group struct {
		buckets []promSample
		sum     *promSample
		count   *promSample
	}
	groups := map[string]*group{}
	grp := func(s promSample) *group {
		rest := make(map[string]string, len(s.labels))
		for k, v := range s.labels {
			if k != "le" {
				rest[k] = v
			}
		}
		key := canonicalLabels(rest)
		g := groups[key]
		if g == nil {
			g = &group{}
			groups[key] = g
		}
		return g
	}
	for _, s := range f.samples {
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			if _, ok := s.labels["le"]; !ok {
				t.Fatalf("%s: bucket sample without le label", f.name)
			}
			g := grp(s)
			g.buckets = append(g.buckets, s)
		case strings.HasSuffix(s.name, "_sum"):
			s := s
			grp(s).sum = &s
		case strings.HasSuffix(s.name, "_count"):
			s := s
			grp(s).count = &s
		default:
			t.Fatalf("%s: unexpected histogram sample %s", f.name, s.name)
		}
	}
	if len(groups) == 0 {
		t.Fatalf("%s: histogram family with no samples", f.name)
	}
	for key, g := range groups {
		if g.sum == nil || g.count == nil {
			t.Fatalf("%s{%s}: missing _sum or _count", f.name, key)
		}
		if len(g.buckets) < 2 {
			t.Fatalf("%s{%s}: only %d buckets", f.name, key, len(g.buckets))
		}
		prevLE := math.Inf(-1)
		prevCum := -1.0
		sawInf := false
		for _, b := range g.buckets {
			le := b.labels["le"]
			bound := math.Inf(1)
			if le != "+Inf" {
				var err error
				bound, err = strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("%s{%s}: unparseable le %q", f.name, key, le)
				}
			} else {
				sawInf = true
			}
			if bound <= prevLE {
				t.Fatalf("%s{%s}: le bounds not increasing at %q", f.name, key, le)
			}
			prevLE = bound
			if b.value < prevCum {
				t.Fatalf("%s{%s}: cumulative bucket counts decreased at le=%q (%g < %g)",
					f.name, key, le, b.value, prevCum)
			}
			prevCum = b.value
		}
		if !sawInf {
			t.Fatalf("%s{%s}: no +Inf bucket", f.name, key)
		}
		last := g.buckets[len(g.buckets)-1]
		if last.labels["le"] != "+Inf" {
			t.Fatalf("%s{%s}: +Inf bucket not last", f.name, key)
		}
		if last.value != g.count.value {
			t.Fatalf("%s{%s}: +Inf bucket %g != _count %g", f.name, key, last.value, g.count.value)
		}
	}
}

// TestMetricsExpositionStrict scrapes a live daemon (distributed engine,
// per-wound tracing on, so every family the registry can expose is present)
// and validates the entire payload against the strict parser.
func TestMetricsExpositionStrict(t *testing.T) {
	g0, anchors := testTopology(t, 16)
	eng, err := dist.NewEngine(dist.Config{Kappa: 4, Seed: 3}, g0)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()

	var spanBuf bytes.Buffer
	rec := obs.NewRecorder(obs.NewSpanWriter(&spanBuf), obs.MustHistogram(obs.LatencyBuckets()))
	s := New(eng, Config{Recorder: rec})
	defer s.Close()

	ctx := context.Background()
	if err := s.Submit(ctx, adversary.Event{Kind: adversary.Insert, Node: 100, Neighbors: anchors[:2]}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	for _, v := range anchors[2:5] {
		if err := s.Submit(ctx, adversary.Event{Kind: adversary.Delete, Node: v}); err != nil {
			t.Fatalf("delete %d: %v", v, err)
		}
	}

	text := s.PrometheusText()
	families := parsePromText(t, text)

	// Every family the daemon promises, with its type.
	wantTyp := map[string]string{
		"xheal_serve_ticks_total":                  "counter",
		"xheal_serve_events_applied_total":         "counter",
		"xheal_serve_inserts_applied_total":        "counter",
		"xheal_serve_deletes_applied_total":        "counter",
		"xheal_serve_events_rejected_total":        "counter",
		"xheal_serve_events_backlogged_total":      "counter",
		"xheal_serve_events_deferred_total":        "counter",
		"xheal_serve_apply_seconds_total":          "counter",
		"xheal_serve_event_wait_seconds_total":     "counter",
		"xheal_serve_batch_events_last":            "gauge",
		"xheal_serve_batch_events_max":             "gauge",
		"xheal_serve_queue_depth":                  "gauge",
		"xheal_serve_nodes":                        "gauge",
		"xheal_serve_edges":                        "gauge",
		"xheal_serve_connected":                    "gauge",
		"xheal_serve_connectivity_age_ticks":       "gauge",
		"xheal_serve_max_degree":                   "gauge",
		"xheal_serve_max_degree_ratio":             "gauge",
		"xheal_serve_lambda2":                      "gauge",
		"xheal_serve_lambda2_age_ticks":            "gauge",
		"xheal_serve_changes_since_refresh":        "gauge",
		"xheal_serve_refresh_due_at_changes":       "gauge",
		"xheal_serve_lambda2_refreshes_total":      "counter",
		"xheal_serve_lambda2_warm_refreshes_total": "counter",
		"xheal_serve_stretch_sampled":              "gauge",
		"xheal_serve_tracker_audits_total":         "counter",
		"xheal_serve_tracker_audit_failures_total": "counter",
		"xheal_serve_uptime_seconds":               "gauge",
		"xheal_serve_tick_seconds":                 "histogram",
		"xheal_serve_batch_events":                 "histogram",
		"xheal_serve_queue_depth_at_tick":          "histogram",
		"xheal_serve_refresh_lock_seconds":         "histogram",
		"xheal_repair_spans_total":                 "counter",
		"xheal_repair_spans_dropped_total":         "counter",
		"xheal_repair_rounds_total":                "counter",
		"xheal_repair_messages_total":              "counter",
		"xheal_repair_phase_seconds_total":         "counter",
		"xheal_repair_seconds":                     "histogram",
	}
	for name, typ := range wantTyp {
		f := families[name]
		if f == nil {
			t.Fatalf("family %s missing from exposition:\n%s", name, text)
		}
		if f.typ != typ {
			t.Fatalf("family %s: type %q, want %q", name, f.typ, typ)
		}
		if f.help == "" {
			t.Fatalf("family %s: no HELP", name)
		}
		if len(f.samples) == 0 {
			t.Fatalf("family %s: no samples", name)
		}
		if typ == "histogram" {
			validateHistogram(t, f)
		}
	}
	for name := range families {
		if _, ok := wantTyp[name]; !ok {
			t.Fatalf("undocumented family %s exposed — add it to the contract", name)
		}
	}

	// Cross-checks against ground truth.
	sample := func(name string, labels ...string) float64 {
		f := families[name]
		for _, s := range f.samples {
			if len(labels) == 2 && s.labels[labels[0]] != labels[1] {
				continue
			}
			return s.value
		}
		t.Fatalf("no sample for %s %v", name, labels)
		return 0
	}
	c := s.Counters()
	if got := sample("xheal_serve_deletes_applied_total"); got != float64(c.DeletesApplied) {
		t.Fatalf("deletes: exposed %g, counter %d", got, c.DeletesApplied)
	}
	if got := sample("xheal_repair_spans_total"); got != float64(rec.Spans()) {
		t.Fatalf("spans: exposed %g, recorder %d", got, rec.Spans())
	}
	rounds, msgs := rec.Ledger()
	if got := sample("xheal_repair_rounds_total"); got != float64(rounds) {
		t.Fatalf("rounds: exposed %g, ledger %d", got, rounds)
	}
	if got := sample("xheal_repair_messages_total"); got != float64(msgs) {
		t.Fatalf("messages: exposed %g, ledger %d", got, msgs)
	}
	phases := families["xheal_repair_phase_seconds_total"]
	if len(phases.samples) != len(obs.Phases()) {
		t.Fatalf("phase series: %d, want %d", len(phases.samples), len(obs.Phases()))
	}
	for _, ph := range obs.Phases() {
		if got := sample("xheal_repair_phase_seconds_total", "phase", ph.String()); got != rec.PhaseSeconds(ph) {
			t.Fatalf("phase %s: exposed %g, recorder %g", ph, got, rec.PhaseSeconds(ph))
		}
	}
	if got := sample("xheal_serve_connected"); got != 1 {
		t.Fatalf("connected gauge: %g", got)
	}
}

// TestParserRejectsMalformed sanity-checks the strict parser itself against
// payloads that must fail (run via subtests that expect Fatal, emulated with
// a child test).
func TestParserCatchesBadEscapes(t *testing.T) {
	// The parser is exercised indirectly: feed a label value through the
	// registry's escaper and confirm the round trip is identity.
	raw := "a\\b\"c\nd,e{f}"
	reg := obs.NewRegistry()
	reg.LabeledCounter("test_rt_total", "Round trip.",
		[]obs.Label{{Key: "v", Value: raw}}, func() float64 { return 1 })
	families := parsePromText(t, reg.PrometheusText())
	f := families["test_rt_total"]
	if f == nil || len(f.samples) != 1 {
		t.Fatalf("round-trip family missing")
	}
	if got := f.samples[0].labels["v"]; got != raw {
		t.Fatalf("label round trip: got %q, want %q", got, raw)
	}
}
