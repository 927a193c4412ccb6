package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro"
)

// Server is the HTTP front of a Registry: it decodes the /v1 wire
// types, translates registry errors to statuses, and streams job
// progress as server-sent events. It is an http.Handler; mount it at
// the root of an http.Server (the /v1 prefix is part of its routes).
// NewServer's functional options wire the durability and operability
// seams: a Store for record persistence and the middleware chain
// (auth, rate limiting, request logging, metrics).
type Server struct {
	reg     *Registry
	mux     *http.ServeMux
	handler http.Handler
	metrics *Metrics
	started time.Time
}

// NewServer builds the handler over the registry, applying the
// options: WithStore installs (and restores from) a durable record
// store, WithAuth / WithRateLimit / WithLogger / WithMetrics /
// WithMiddleware assemble the middleware chain in the fixed order
// metrics → logging → auth → rate limit → custom → routes. The
// registry's lifecycle stays with the caller (Close it after the
// http.Server shuts down).
func NewServer(reg *Registry, opts ...ServerOption) (*Server, error) {
	var st serverSettings
	for _, o := range opts {
		if o == nil {
			return nil, fmt.Errorf("%w: nil server option", repro.ErrBadConfig)
		}
		if err := o(&st); err != nil {
			return nil, err
		}
	}
	if st.store != nil {
		if err := reg.UseStore(st.store); err != nil {
			return nil, err
		}
	}

	s := &Server{reg: reg, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("POST /v1/datasets", s.postDataset)
	s.mux.HandleFunc("GET /v1/datasets", s.listDatasets)
	s.mux.HandleFunc("GET /v1/datasets/{id}", s.getDataset)
	s.mux.HandleFunc("POST /v1/sessions", s.postSession)
	s.mux.HandleFunc("GET /v1/sessions", s.listSessions)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.getSession)
	s.mux.HandleFunc("GET /v1/sessions/{id}/stats", s.getStats)
	s.mux.HandleFunc("POST /v1/sessions/{id}/jobs", s.postJob)
	s.mux.HandleFunc("GET /v1/jobs", s.listJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.deleteJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.getEvents)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})

	var mws []Middleware
	if st.metrics {
		s.metrics = NewMetrics()
		s.mux.HandleFunc("GET /metrics", s.getMetrics)
		mws = append(mws, s.metrics.Middleware())
	}
	if st.runtimeStats {
		s.mux.HandleFunc("GET /debug/runtime", s.getRuntime)
	}
	if st.loggerSet {
		mws = append(mws, LoggingMiddleware(st.logger))
	}
	if st.authSet {
		mws = append(mws, AuthMiddleware(st.auth...))
	}
	if st.rateSet {
		mws = append(mws, RateLimitMiddleware(st.rateRPS, st.rateBurst))
	}
	mws = append(mws, st.extra...)
	s.handler = Chain(s.mux, mws...)
	return s, nil
}

// ServeHTTP dispatches through the middleware chain to the versioned
// routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Registry returns the registry behind the server (for drain and
// lifecycle control by the embedding process).
func (s *Server) Registry() *Registry { return s.reg }

// writeJSON encodes v with status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) // a failed write means the client is gone; nothing to do
}

// writeError maps the error vocabulary onto statuses and the stable
// error envelope.
func writeError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, CodeInternal
	switch {
	case errors.Is(err, ErrNotFound):
		status, code = http.StatusNotFound, CodeNotFound
	case errors.Is(err, repro.ErrSessionBusy):
		status, code = http.StatusTooManyRequests, CodeBusy
	case errors.Is(err, ErrDraining):
		status, code = http.StatusServiceUnavailable, CodeDraining
	case errors.Is(err, repro.ErrBadConfig), errors.Is(err, repro.ErrBadDataset):
		status, code = http.StatusBadRequest, CodeBadRequest
	}
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: err.Error()}})
}

// maxBodyBytes caps every request body: large enough for a
// multi-thousand-SNP table upload, small enough that one client
// cannot buffer the shared process into the ground.
const maxBodyBytes = 64 << 20

// decode reads the size-capped request body as JSON into v.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: invalid request body: %v", repro.ErrBadConfig, err)
	}
	return nil
}

// pageParams reads the ?cursor= and ?limit= query parameters. A
// malformed or negative limit is a bad_request.
func pageParams(r *http.Request) (cursor string, limit int, err error) {
	q := r.URL.Query()
	cursor = q.Get("cursor")
	if s := q.Get("limit"); s != "" {
		limit, err = strconv.Atoi(s)
		if err != nil || limit < 0 {
			return "", 0, fmt.Errorf("%w: invalid limit %q", repro.ErrBadConfig, s)
		}
	}
	return cursor, limit, nil
}

func (s *Server) postDataset(w http.ResponseWriter, r *http.Request) {
	var req DatasetRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	info, err := s.reg.AddDataset(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) getDataset(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Dataset(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) listDatasets(w http.ResponseWriter, r *http.Request) {
	cursor, limit, err := pageParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	list, err := s.reg.ListDatasets(cursor, limit)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) postSession(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	info, err := s.reg.CreateSession(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) getSession(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) listSessions(w http.ResponseWriter, r *http.Request) {
	cursor, limit, err := pageParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	list, err := s.reg.ListSessions(cursor, limit)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) getStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.reg.Stats(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) getMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Info(s.reg.EngineTotals()))
}

func (s *Server) postJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	ji, err := s.reg.StartJob(r.PathValue("id"), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, ji)
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	ji, err := s.reg.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ji)
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	cursor, limit, err := pageParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	list, err := s.reg.ListJobs(r.URL.Query().Get("session"), cursor, limit)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) deleteJob(w http.ResponseWriter, r *http.Request) {
	ji, err := s.reg.StopJob(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ji)
}

// getEvents streams the job's SSE frames — "generation" for GA and
// sweep progress, "leaderboard" for a race, conflated (see
// Registry.subscribe) — and a final "done" event carrying the JobInfo.
// The stream ends when the run does or when the client disconnects.
// For a finished — or restored — job it is finalFrames and the
// terminating done event.
func (s *Server) getEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	frames, off, err := s.reg.subscribe(id)
	if err != nil {
		writeError(w, err)
		return
	}
	defer off()

	fl, ok := sseStart(w)
	if !ok {
		return
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case f, ok := <-frames:
			if !ok {
				// Run finished: close the stream with the outcome.
				ji, err := s.reg.Job(id)
				if err != nil {
					return // session evicted mid-stream; nothing to report
				}
				writeEvent(w, EventDone, "", ji)
				fl.Flush()
				return
			}
			writeEvent(w, f.event, f.id, f.data)
			fl.Flush()
		}
	}
}

// sseStart negotiates the event-stream response; false means the
// writer cannot stream and an error was already written.
func sseStart(w http.ResponseWriter) (http.Flusher, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errors.New("serve: response writer does not support streaming"))
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl, true
}

// writeEvent emits one SSE frame. id may be empty.
func writeEvent(w http.ResponseWriter, event, id string, data any) {
	b, err := json.Marshal(data)
	if err != nil {
		return
	}
	if id != "" {
		fmt.Fprintf(w, "id: %s\n", id)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}
