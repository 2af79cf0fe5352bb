package server

import (
	"errors"
	"fmt"

	"cgp/internal/obs"
)

// Typed serving errors. Each sentinel has a stable wire code so a
// remote client gets the same typed error the in-process caller would:
// errors.Is(err, ErrOverloaded) works on both sides of the socket.
var (
	// ErrOverloaded: admission control shed the query (token bucket
	// empty or inflight limit reached). The request was not executed;
	// the client should back off and retry.
	ErrOverloaded = errors.New("server: overloaded")
	// ErrDeadline: the query exceeded its per-query execution budget
	// and was aborted mid-drain; its transaction rolled back.
	ErrDeadline = errors.New("server: query deadline exceeded")
	// ErrStaleStatement: an Exec referenced a prepared-statement id the
	// cache has since evicted. The client re-prepares and retries.
	ErrStaleStatement = errors.New("server: prepared statement evicted")
	// ErrShutdown: the server is draining; no new queries are accepted.
	ErrShutdown = errors.New("server: shutting down")
	// ErrMalformed: the peer violated the wire protocol (bad frame
	// header, truncated payload, unknown message type). The connection
	// is closed after reporting it.
	ErrMalformed = errors.New("server: malformed frame")
	// ErrTooLarge: a frame or result exceeded its size bound.
	ErrTooLarge = errors.New("server: frame too large")
	// ErrInternal: a statement panicked inside parse/plan/execute. The
	// request died, the process lived; the bug is server-side.
	ErrInternal = errors.New("server: internal")
)

// Wire error codes, one per sentinel plus codeQuery for ordinary
// statement errors (parse/plan/execution failures the client can fix).
const (
	codeInternal   byte = 1
	codeOverloaded byte = 2
	codeDeadline   byte = 3
	codeMalformed  byte = 4
	codeStaleStmt  byte = 5
	codeShutdown   byte = 6
	codeTooLarge   byte = 7
	codeQuery      byte = 8
)

// codeFor maps an execution error to its wire code.
func codeFor(err error) byte {
	switch {
	case errors.Is(err, ErrOverloaded):
		return codeOverloaded
	case errors.Is(err, ErrDeadline):
		return codeDeadline
	case errors.Is(err, ErrStaleStatement):
		return codeStaleStmt
	case errors.Is(err, ErrShutdown):
		return codeShutdown
	case errors.Is(err, ErrTooLarge):
		return codeTooLarge
	case errors.Is(err, ErrMalformed):
		return codeMalformed
	case errors.Is(err, ErrInternal):
		return codeInternal
	}
	return codeQuery
}

// statusFor maps a query's outcome to its span terminal status, so
// chaos outcomes (shed, deadline, panic) are distinguishable in the
// slow-query log and the Perfetto export.
func statusFor(err error) string {
	switch {
	case err == nil:
		return obs.StatusOK
	case errors.Is(err, ErrOverloaded):
		return obs.StatusShed
	case errors.Is(err, ErrDeadline):
		return obs.StatusDeadline
	case errors.Is(err, ErrShutdown):
		return obs.StatusShutdown
	case errors.Is(err, ErrInternal):
		return obs.StatusPanic
	}
	return obs.StatusError
}

// errFromWire rebuilds a typed error from a wire code and message, so
// client-side errors.Is matches the same sentinels the server used.
func errFromWire(code byte, msg string) error {
	var sentinel error
	switch code {
	case codeOverloaded:
		sentinel = ErrOverloaded
	case codeDeadline:
		sentinel = ErrDeadline
	case codeStaleStmt:
		sentinel = ErrStaleStatement
	case codeShutdown:
		sentinel = ErrShutdown
	case codeTooLarge:
		sentinel = ErrTooLarge
	case codeMalformed:
		sentinel = ErrMalformed
	case codeInternal:
		sentinel = ErrInternal
	case codeQuery:
		return &QueryError{Msg: msg}
	default:
		return fmt.Errorf("%w: unknown error code %d: %s", ErrMalformed, code, msg)
	}
	return fmt.Errorf("%w: %s", sentinel, msg)
}

// QueryError is an ordinary statement error the server reported: a
// parse, plan or execution failure the client can fix.
type QueryError struct {
	Msg string
}

// Error implements error.
func (e *QueryError) Error() string { return e.Msg }
