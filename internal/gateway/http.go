package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// TenantHeader names the request header carrying the tenant identity.
// Absent or empty means the "default" tenant.
const TenantHeader = "X-Raft-Tenant"

// Handler returns the gateway's HTTP API:
//
//	POST /v1/ingest/{source}        body = one payload; 202 on admit
//	POST /v1/sources/{source}/close end the source's stream (EOF)
//	GET  /v1/stats                  JSON admission counters
//	GET  /metrics                   Prometheus text format
//
// Exposed so tests drive the mux through httptest without real sockets.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest/{source}", s.handleIngest)
	mux.HandleFunc("POST /v1/sources/{source}/close", s.handleClose)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	payload, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	res := s.ingest(r.Header.Get(TenantHeader), r.PathValue("source"), payload)
	switch res.code {
	case accepted:
		writeAdmitted(w, res.n)
	case shedQuota, shedModel:
		// Whole seconds, rounded up; clampRetry keeps res.retry >= 1s, since
		// a zero Retry-After reads as "retry now".
		secs := int64((res.retry + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":       res.msg,
			"retry_after": secs,
		})
	case notFound:
		httpError(w, http.StatusNotFound, res.msg)
	case unwired, closed:
		httpError(w, http.StatusServiceUnavailable, res.msg)
	case badPayload:
		httpError(w, http.StatusBadRequest, res.msg)
	}
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	b := s.binding(r.PathValue("source"))
	if b == nil {
		httpError(w, http.StatusNotFound, "unknown source")
		return
	}
	if b.CloseIntake == nil {
		httpError(w, http.StatusServiceUnavailable, "source does not support close")
		return
	}
	b.CloseIntake()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// jsonContentType is shared by every 202 (net/http only reads it).
var jsonContentType = []string{"application/json"}

// writeAdmitted writes the 202 answer to an admitted request, the bytes
// writeJSON writes for {"admitted": n}, without a map or reflection. The
// parts go out as strings: a byte buffer would escape through Write.
func writeAdmitted(w http.ResponseWriter, n int) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusAccepted)
	io.WriteString(w, `{"admitted":`)
	io.WriteString(w, strconv.Itoa(n))
	io.WriteString(w, "}\n")
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}
