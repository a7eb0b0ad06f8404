package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Machine-readable error codes carried in ErrorResponse.Code. Clients
// branch on these rather than parsing messages.
const (
	// CodeBadRequest reports a malformed or incomplete request.
	CodeBadRequest = "bad_request"
	// CodeUnknownWorker reports an operation on a worker the server has
	// never assigned a task to.
	CodeUnknownWorker = "unknown_worker"
	// CodeNoPending reports a submit for a task the worker does not hold —
	// either it was never assigned, or the assignment lease expired and a
	// sweeper reclaimed it.
	CodeNoPending = "no_pending"
	// CodeLogWrite reports that the durable event log could not be
	// appended; the request was not applied and should be retried once
	// durability is restored (HTTP 503).
	CodeLogWrite = "log_write_failed"
	// CodeConflict reports a submission the strategy rejected.
	CodeConflict = "conflict"
	// CodeInternal reports an invariant violation inside the server.
	CodeInternal = "internal"
	// CodeNotFound reports a request for a path the API does not serve
	// (HTTP 404, typed instead of net/http's plain-text default).
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed reports a known path hit with the wrong HTTP
	// method (HTTP 405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeOverloaded reports that the admission queue is full: the request
	// was shed before doing any work (HTTP 429, Retry-After set). The
	// request was NOT applied and is safe to retry after backing off.
	CodeOverloaded = "overloaded"
	// CodeAdmissionTimeout reports that the request's deadline expired
	// while it was waiting for admission (HTTP 429, Retry-After set). As
	// with CodeOverloaded, nothing was applied.
	CodeAdmissionTimeout = "admission_timeout"
	// CodeThrottled reports that the worker exceeded their per-worker rate
	// limit (HTTP 429, Retry-After set): the Zipf hot worker is slowed so
	// it cannot starve the rest of the crowd.
	CodeThrottled = "throttled"
	// CodeProjectNotFound reports a /v1/projects/{id}/... request naming a
	// project the server does not host (HTTP 404). Distinct from
	// CodeNotFound so clients can tell "wrong project" from "wrong path".
	CodeProjectNotFound = "project_not_found"
	// CodeShardUnavailable reports that the shard owning the request's key
	// range is down (HTTP 503, Retry-After set). Emitted by the
	// consistent-hash router (internal/shard), never by a single server:
	// the request was NOT applied and is safe to retry after backing off —
	// the router re-admits the shard once its health probe recovers.
	CodeShardUnavailable = "shard_unavailable"
	// CodeSLODisabled reports a GET /v1/slo against a server (or fleet)
	// with no SLO engine configured (HTTP 404): objectives are declared
	// via the -slo-* flags, so their absence is a configuration, not a
	// fault.
	CodeSLODisabled = "slo_disabled"
)

// ErrorResponse is the JSON body of every non-2xx response the server
// produces itself (proxies may still emit plain text).
type ErrorResponse struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is a human-readable description.
	Message string `json:"message"`
}

// APIError is the typed client-side view of a non-2xx response.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Code is the machine-readable error code ("" when the body was not an
	// ErrorResponse).
	Code string
	// Message is the server's description (or the raw body).
	Message string
	// RetryAfter is the server's Retry-After hint (zero when the response
	// carried none). Set on 429/503 sheds from the overload layer.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("platform: HTTP %d [%s]: %s", e.StatusCode, e.Code, e.Message)
	}
	return fmt.Sprintf("platform: HTTP %d: %s", e.StatusCode, e.Message)
}

// IsNoPending reports whether err is the typed rejection of a submit for a
// task the worker does not hold (lease expired or never assigned).
func IsNoPending(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeNoPending
}

// IsOverloaded reports whether err is a shed from the admission layer
// (queue full, or the deadline expired while queued). Overloaded requests
// were never applied; retry after the server's Retry-After hint.
func IsOverloaded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) &&
		(ae.Code == CodeOverloaded || ae.Code == CodeAdmissionTimeout)
}

// IsThrottled reports whether err is a per-worker rate-limit rejection.
func IsThrottled(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeThrottled
}

// IsShed reports whether err is any 429 shed the overload-protection layer
// produces (admission or rate limit) — the "slow down, nothing happened"
// class a well-behaved client backs off on.
func IsShed(err error) bool { return IsOverloaded(err) || IsThrottled(err) }

// IsShardUnavailable reports whether err is the router's typed 503 for a
// request whose owning shard is down. Nothing was applied; the client's
// retry loop already backs off on it (503 is retryable and the response
// carries Retry-After), so callers usually only branch on this to count or
// log the outage rather than to change behaviour.
func IsShardUnavailable(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeShardUnavailable
}

// IsProjectNotFound reports whether err is the typed 404 for a request
// naming a project the server does not host.
func IsProjectNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeProjectNotFound
}

// writeError emits a typed JSON error response.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Code: code, Message: msg})
}
