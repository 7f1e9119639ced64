package main

// The batch and async surfaces of the mapping daemon. Both hand their
// requests to the one job path (newJob, then run in server.go) that
// POST /map uses.
//
// POST /map/batch takes up to MaxBatch mapping requests in one body,
// fingerprints every entry with the result cache's canonical content
// address (the job's fingerprint), and runs each distinct one as one
// job; duplicate entries copy the representative's result
// (Deduped=true, sharing its run_id and trace). Dedup works with or
// without the result cache — the fingerprint is pure — but with the
// cache on, entries already compiled by earlier traffic are hits too.
//
// POST /map/submit accepts one request, validates it synchronously
// (bad requests fail fast with 400), and runs it in the background
// under JobTimeout; GET /map/result/{id} polls it: 202 while running,
// 200 with the mapResponse once done, 404 once evicted or never known.
// Completed jobs retire into the same flight recorder ring as
// synchronous runs.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"rewire"
	"rewire/internal/resultcache"
)

// batchRequest is the POST /map/batch body.
type batchRequest struct {
	Requests []mapRequest `json:"requests"`
}

// batchResponse answers a batch: Results[i] corresponds to
// Requests[i], order preserved. Deduped counts entries answered by
// copying a same-fingerprint sibling.
type batchResponse struct {
	Results []mapResponse `json:"results"`
	Deduped int           `json:"deduped"`
}

// handleBatch serves POST /map/batch: one job per distinct fingerprint,
// all run concurrently under one RequestTimeout; duplicates copy their
// representative's answer.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var breq batchRequest
	if !s.decode(w, r, &breq, int64(s.cfg.MaxBatch)*maxBodyBytes) {
		return
	}
	n := len(breq.Requests)
	switch {
	case n == 0:
		s.reject(w, "unknown", errors.New("empty batch: set requests to 1..N mapping requests"))
		return
	case n > s.cfg.MaxBatch:
		s.reject(w, "unknown", fmt.Errorf("batch of %d exceeds the server cap of %d entries", n, s.cfg.MaxBatch))
		return
	}
	s.mBatchReqs.Inc()
	s.mBatchEntries.Add(int64(n))

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// An invalid entry fails alone, not the batch; the canonical key
	// collapses duplicates. Results land at their entry's index.
	results := make([]mapResponse, n)
	keys := make([]string, n)      // "" for an invalid entry
	rep := make(map[string]int, n) // fingerprint -> representative index
	var wg sync.WaitGroup
	for i := range breq.Requests {
		req := &breq.Requests[i]
		j, err := s.newJob(req, nil)
		if err != nil {
			s.mReqs.With(strings.ToLower(req.Mapper), "invalid").Inc()
			results[i] = mapResponse{Mapper: strings.ToLower(req.Mapper), Error: err.Error()}
			continue
		}
		keys[i] = resultcache.KeyFor(j.g, j.cgra, j.fp).String()
		if _, dup := rep[keys[i]]; dup {
			continue // filled from the representative after the wait
		}
		rep[keys[i]] = i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _ = s.run(ctx, j)
		}()
	}
	wg.Wait()

	deduped := 0
	for i, key := range keys {
		if j, ok := rep[key]; ok && j != i {
			results[i] = results[j]
			results[i].Deduped = true
			deduped++
		}
	}
	s.mBatchDeduped.Add(int64(deduped))
	s.lg.Info("batch served", "entries", n, "unique", len(rep), "deduped", deduped)
	writeJSON(w, http.StatusOK, batchResponse{Results: results, Deduped: deduped})
}

// submitResponse is the POST /map/submit answer, and the 202 body of
// GET /map/result/{id} while the job still runs.
type submitResponse struct {
	JobID     string `json:"job_id"`
	Status    string `json:"status"` // running or done
	ResultURL string `json:"result_url"`
	// EventsURL is the job's live progress stream (Server-Sent Events);
	// see GET /map/events/{id}.
	EventsURL string `json:"events_url,omitempty"`
}

// handleSubmit serves POST /map/submit: validate now, map later. Only
// async jobs enter the job table, under JobTimeout.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req mapRequest
	if !s.decode(w, r, &req, maxBodyBytes) {
		return
	}
	j, err := s.newJob(&req, rewire.NewProgressBus(0))
	if err != nil {
		s.reject(w, req.Mapper, err)
		return
	}
	if !s.jobs.submit(j.runID, j.bus) {
		s.mJobs.With("rejected").Inc()
		j.lg.Warn("job table full; submission rejected")
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: fmt.Sprintf("all %d job slots are running; retry later", s.cfg.JobCapacity)})
		return
	}
	s.mJobs.With("submitted").Inc()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.JobTimeout)
		defer cancel()
		resp, _ := s.run(ctx, j)
		s.jobs.complete(j.runID, resp)
		s.mJobs.With("completed").Inc()
	}()
	writeJSON(w, http.StatusAccepted, submitResponse{
		JobID: j.runID, Status: "running", ResultURL: "/map/result/" + j.runID,
		EventsURL: "/map/events/" + j.runID,
	})
}

// handleEvents serves GET /map/events/{id}: the async job's progress
// stream as Server-Sent Events. Retained events replay first (the bus
// drops oldest beyond its capacity), then live events stream until the
// job ends; each SSE id is the event's monotonic sequence number, so a
// reconnecting client can detect gaps. Works on completed jobs too:
// the retained tail replays, then the stream ends.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	bus := s.jobs.bus(id)
	if bus == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: fmt.Sprintf("job %q is unknown or already evicted (table keeps the last %d jobs)", id, s.cfg.JobCapacity)})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, cancel := bus.Subscribe(64)
	defer cancel()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				fmt.Fprint(w, "event: end\ndata: {}\n\n")
				fl.Flush()
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleResult serves GET /map/result/{id}.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	resp, running, ok := s.jobs.get(id)
	switch {
	case !ok:
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: fmt.Sprintf("job %q is unknown or already evicted (table keeps the last %d jobs)", id, s.cfg.JobCapacity)})
	case running:
		writeJSON(w, http.StatusAccepted, submitResponse{
			JobID: id, Status: "running", ResultURL: "/map/result/" + id,
		})
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// jobTable tracks async jobs: bounded to capacity entries total, with
// completed jobs evicted oldest-first to make room for new
// submissions. A submission is rejected only when every slot is held
// by a still-running job.
type jobTable struct {
	mu       sync.Mutex
	jobs     map[string]*asyncJob
	doneIDs  []string // completed job IDs, oldest first
	capacity int
}

type asyncJob struct {
	running bool
	resp    mapResponse
	// progress is the job's live event bus; it stays readable after
	// completion (retained events replay to late subscribers) and is
	// dropped with the job at eviction.
	progress *rewire.ProgressBus
}

func newJobTable(capacity int) *jobTable {
	return &jobTable{jobs: make(map[string]*asyncJob), capacity: capacity}
}

// submit registers a running job with its progress bus, evicting
// completed jobs as needed. It returns false when the table is full of
// running jobs.
func (t *jobTable) submit(id string, bus *rewire.ProgressBus) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.jobs) >= t.capacity && len(t.doneIDs) > 0 {
		delete(t.jobs, t.doneIDs[0])
		t.doneIDs = t.doneIDs[1:]
	}
	if len(t.jobs) >= t.capacity {
		return false
	}
	t.jobs[id] = &asyncJob{running: true, progress: bus}
	return true
}

// bus returns a job's progress bus, nil when the job is unknown.
func (t *jobTable) bus(id string) *rewire.ProgressBus {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	if !ok {
		return nil
	}
	return j.progress
}

// complete retires a job with its result.
func (t *jobTable) complete(id string, resp mapResponse) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	if !ok {
		return // evicted while running cannot happen; defensive
	}
	j.running = false
	j.resp = resp
	t.doneIDs = append(t.doneIDs, id)
}

// get returns a job's result copy and whether it is still running.
func (t *jobTable) get(id string) (mapResponse, bool, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	if !ok {
		return mapResponse{}, false, false
	}
	return j.resp, j.running, true
}
