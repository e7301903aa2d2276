package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/vfs"
)

// Server serves the campaign registry over HTTP. It is a plain http.Handler
// — the caller owns the http.Server, its listener, and graceful shutdown
// (shut the HTTP server down first, then Close the registry so in-flight
// requests never observe a closed registry).
type Server struct {
	reg *campaign.Registry
	mux *http.ServeMux
}

// New builds the handler over a registry.
func New(reg *campaign.Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handlePoll)
	s.mux.HandleFunc("POST /v1/campaigns/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /v1/campaigns/{id}/pause", s.handlePause)
	s.mux.HandleFunc("POST /v1/campaigns/{id}/resume", s.handleResume)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	s.mux.HandleFunc("GET /v1/store", s.handleStore)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON writes v with the status code; encoding errors after the header
// has gone out can only be dropped.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // header already sent; the connection owns the failure
}

// writeErr maps registry errors onto HTTP statuses: unknown campaign → 404,
// illegal transition (double-cancel, resume-of-running, …) → 409, tenant
// budget exhausted → 429, registry shutting down → 503, ENOSPC-class disk
// exhaustion → 507 Insufficient Storage, anything else → 400.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, campaign.ErrUnknownCampaign):
		code = http.StatusNotFound
	case errors.Is(err, campaign.ErrTransition):
		code = http.StatusConflict
	case errors.Is(err, campaign.ErrTenantBudget):
		code = http.StatusTooManyRequests
	case errors.Is(err, campaign.ErrClosed):
		code = http.StatusServiceUnavailable
	case vfs.IsNoSpace(err):
		// A full disk refused the campaign's durable admission (mkdir or
		// the campaign file's create). The honest status is 507: the request was
		// well-formed, the storage was not there for it. Other tenants'
		// campaigns keep running.
		code = http.StatusInsufficientStorage
	}
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// maxBodyBytes bounds request bodies; specs are a few hundred bytes.
const maxBodyBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	body := io.LimitReader(r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	c, err := s.reg.Submit(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, SubmitResponse{ID: c.ID, Status: c.Status()})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	statuses := s.reg.List(r.URL.Query().Get("tenant"))
	if statuses == nil {
		statuses = []CampaignStatus{}
	}
	writeJSON(w, http.StatusOK, ListResponse{Campaigns: statuses})
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	c, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

// mutate runs op against the campaign id and answers with its fresh status.
func (s *Server) mutate(w http.ResponseWriter, id string, op func(string) error) {
	if err := op(id); err != nil {
		writeErr(w, err)
		return
	}
	c, err := s.reg.Get(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, OKResponse{ID: id, Status: c.Status()})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mutate(w, r.PathValue("id"), s.reg.Cancel)
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	s.mutate(w, r.PathValue("id"), s.reg.Pause)
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	s.mutate(w, r.PathValue("id"), s.reg.ResumeCampaign)
}

func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	snaps := s.reg.Ledgers().Snapshots()
	if snaps == nil {
		snaps = []TenantLedger{}
	}
	writeJSON(w, http.StatusOK, TenantsResponse{Tenants: snaps})
}

func (s *Server) handleStore(w http.ResponseWriter, _ *http.Request) {
	stats, enabled := s.reg.StoreStats()
	writeJSON(w, http.StatusOK, StoreResponse{Enabled: enabled, Stats: stats})
}

// handleHealth reports per-subsystem health. Always 200 — the daemon
// answering IS the liveness signal; degradation rides in the body so load
// balancers keep routing while operators see the disk trouble.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.reg.Health()
	status := "ok"
	if h.Degraded {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: status, Detail: h})
}
