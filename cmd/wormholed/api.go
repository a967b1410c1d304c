package main

// The HTTP/JSON surface. All responses are JSON except a done job's
// /result, which is the rendered CSV.
//
//	POST /api/v1/jobs             submit a JobSpec       → 202 JobStatus
//	GET  /api/v1/jobs             list                   → 200 [JobStatus]
//	GET  /api/v1/jobs/{id}        status                 → 200 JobStatus
//	POST /api/v1/jobs/{id}/cancel cancel                 → 200 JobStatus
//	GET  /api/v1/jobs/{id}/result final output           → 200 text/csv (409 until done)
//	GET  /api/v1/jobs/{id}/metrics latest per-window telemetry snapshot
//	                              (telemetry.Publisher; 204 before first window)
//	GET  /healthz                 liveness               → 200 {"ok":true}
//	GET  /metrics                 daemon gauges          → 200 JSON
//
// Invalid submissions — an enum spelling the engine does not know, a
// network past traffic.MaxEndpoints, a message past
// traffic.MaxMessageLength, and workloads the engine rejects
// with its typed errors (vcsim.ErrBadConfig, ErrBadMessage,
// ErrOverHorizon) — are 400s carrying the engine's message, never
// worker-side failures.
// Submissions over the -max-queued admission cap are 429s with a
// Retry-After header; bodies over 1 MiB are 413s (MaxBytesReader).

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"time"

	"wormhole/internal/vcsim"
)

// maxJobBody bounds a job submission; a JobSpec is a few hundred bytes,
// so 1 MiB is generous without letting a client buffer gigabytes.
const maxJobBody = 1 << 20

func newAPI(m *manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxJobBody)
		var spec JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge, err.Error())
				return
			}
			httpError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
			return
		}
		st, err := m.Submit(spec)
		if err != nil {
			if errors.Is(err, errShutdown) {
				httpError(w, http.StatusServiceUnavailable, err.Error())
				return
			}
			if errors.Is(err, errQueueFull) {
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusTooManyRequests, err.Error())
				return
			}
			resp := map[string]string{"error": "bad_request", "message": err.Error()}
			if k := engineErrorKind(err); k != "" {
				resp["engine_error"] = k
			}
			writeJSON(w, http.StatusBadRequest, resp)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.List())
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		writeJSON(w, http.StatusOK, j.snapshotStatus())
	})
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !m.Cancel(id) {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		j, _ := m.Get(id)
		writeJSON(w, http.StatusOK, j.snapshotStatus())
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		st := j.snapshotStatus()
		if st.State != stateDone {
			httpError(w, http.StatusConflict, "job is "+string(st.State))
			return
		}
		blob, err := os.ReadFile(m.ResultPath(st.ID))
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		w.Write(blob) //nolint:errcheck -- best-effort response body
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		j.pub.ServeHTTP(w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		all := m.List()
		counts := map[jobState]int{}
		for _, st := range all {
			counts[st.State]++
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"uptime_sec":    int64(time.Since(m.start) / time.Second),
			"jobs_total":    len(all),
			"jobs_queued":   counts[stateQueued],
			"jobs_running":  counts[stateRunning],
			"jobs_done":     counts[stateDone],
			"jobs_failed":   counts[stateFailed],
			"jobs_canceled": counts[stateCanceled],
		})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck -- best-effort response body
}

func httpError(w http.ResponseWriter, code int, msg string) {
	kind := ""
	switch code {
	case http.StatusBadRequest:
		kind = "bad_request"
	case http.StatusNotFound:
		kind = "not_found"
	case http.StatusConflict:
		kind = "not_ready"
	case http.StatusTooManyRequests:
		kind = "overloaded"
	case http.StatusRequestEntityTooLarge:
		kind = "too_large"
	case http.StatusServiceUnavailable:
		kind = "shutting_down"
	default:
		kind = "internal"
	}
	writeJSON(w, code, map[string]string{"error": kind, "message": msg})
}

// engineErrorKind classifies the engine's typed validation errors for
// clients that want to branch on the cause rather than parse messages.
func engineErrorKind(err error) string {
	switch {
	case errors.Is(err, vcsim.ErrOverHorizon):
		return "over_horizon"
	case errors.Is(err, vcsim.ErrBadMessage):
		return "bad_message"
	case errors.Is(err, vcsim.ErrBadConfig):
		return "bad_config"
	}
	return ""
}
