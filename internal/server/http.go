package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
)

// maxBodyBytes bounds one ingest request body (1 MiB is thousands of
// events; anything bigger is a client bug, not a workload).
const maxBodyBytes = 1 << 20

// IngestEvent is the wire form of one event, the same schema internal/trace
// uses on disk — so a recorded trace's events POST verbatim.
type IngestEvent struct {
	// Kind is "insert" or "delete".
	Kind string `json:"kind"`
	// Node is the inserted or deleted node.
	Node graph.NodeID `json:"node"`
	// Neighbors are the insertion attachments (insert only).
	Neighbors []graph.NodeID `json:"neighbors,omitempty"`
}

// IngestResponse answers one ingest request.
type IngestResponse struct {
	// Applied counts this request's events that were applied; on error the
	// remaining events were either rejected (the first rejection is Error)
	// or never enqueued.
	Applied int `json:"applied"`
	// Error describes the first failure, when there was one.
	Error string `json:"error,omitempty"`
}

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/events  — ingest one event object or an array of them; each
//	                   event blocks until its tick applies it
//	GET  /v1/health  — Health snapshot as JSON
//	GET  /metrics    — the counters in Prometheus text exposition format
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/health", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, 0, fmt.Errorf("read body: %w", err))
		return
	}
	if len(body) > maxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, 0, errors.New("body exceeds 1 MiB"))
		return
	}
	events, err := decodeIngest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, 0, err)
		return
	}
	// Enqueue the whole array in one intake operation before awaiting any
	// verdict: the group lands contiguously (preserving the array's order)
	// and coalesces into as few ticks as possible.
	all := make([]*submission, len(events))
	now := time.Now()
	for i, ev := range events {
		all[i] = &submission{ev: ev, done: make(chan error, 1), at: now}
	}
	accepted, firstErr := s.submitMany(all)
	applied := 0
	for _, sub := range all[:accepted] {
		select {
		case err := <-sub.done:
			switch {
			case err == nil:
				applied++
			case firstErr == nil:
				firstErr = err
			}
		case <-r.Context().Done():
			if firstErr == nil {
				firstErr = r.Context().Err()
			}
		}
		if firstErr != nil && errors.Is(firstErr, r.Context().Err()) {
			break // client gone; stop awaiting verdicts (events still apply)
		}
	}
	// A verdict error outranks the tail's backlog refusal: 503 must mean
	// "applied is a prefix of the array, resend the rest", and a rejection
	// inside the accepted part makes applied a count, not a prefix.
	if firstErr == nil && accepted < len(all) {
		firstErr = ErrBacklog
	}
	if firstErr != nil {
		httpError(w, statusFor(firstErr), applied, firstErr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(IngestResponse{Applied: applied})
}

// decodeIngest accepts one event object or an array of them.
func decodeIngest(body []byte) ([]adversary.Event, error) {
	var wire []IngestEvent
	for _, b := range body {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '[':
			if err := json.Unmarshal(body, &wire); err != nil {
				return nil, fmt.Errorf("decode event array: %w", err)
			}
		default:
			var one IngestEvent
			if err := json.Unmarshal(body, &one); err != nil {
				return nil, fmt.Errorf("decode event: %w", err)
			}
			wire = []IngestEvent{one}
		}
		break
	}
	if len(wire) == 0 {
		return nil, errors.New("empty request")
	}
	events := make([]adversary.Event, 0, len(wire))
	for i, e := range wire {
		var kind adversary.EventKind
		switch e.Kind {
		case "insert":
			kind = adversary.Insert
		case "delete":
			kind = adversary.Delete
		default:
			return nil, fmt.Errorf("event %d: kind %q is not \"insert\" or \"delete\"", i, e.Kind)
		}
		events = append(events, adversary.Event{Kind: kind, Node: e.Node, Neighbors: e.Neighbors})
	}
	return events, nil
}

// statusFor maps a Submit error onto an HTTP status: overload and shutdown
// are 503 (retryable elsewhere), conflicts and invalid targets are 409/422,
// a dead request context is 408 (the nearest standard code to a client
// disconnect), and anything unrecognized is a server-side failure, 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBacklog), errors.Is(err, ErrClosed), errors.Is(err, ErrNotDurable):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrTooManyConflicts), errors.Is(err, core.ErrBatchConflict):
		return http.StatusConflict
	case errors.Is(err, core.ErrNodeExists), errors.Is(err, core.ErrReusedNodeID),
		errors.Is(err, core.ErrNodeMissing), errors.Is(err, ErrTooFewNodes):
		return http.StatusConflict
	case errors.Is(err, core.ErrBadNeighbor), errors.Is(err, core.ErrSelfInsert):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

func httpError(w http.ResponseWriter, status, applied int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(IngestResponse{Applied: applied, Error: err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Health())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.PrometheusText()))
}
