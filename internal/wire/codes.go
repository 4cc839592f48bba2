// Package wire is the shared wire codec of the ccam-serve query
// service: the op table (every operation written once: its name,
// endpoint, request and reply types, binary codecs and store call), the
// stable error-code table, the JSON request bodies of the HTTP protocol
// and the length-prefixed binary framing — one codec, used by the
// server (cmd/ccam-serve via internal/server) and by the binary client
// (wire.Client, which the end-to-end harness in benchmark/ drives).
//
// Error contract: every exported ccam sentinel maps to exactly one
// stable Code (and each Code to one HTTP status) in the table below.
// Codes — not messages, not HTTP statuses — are the wire contract:
// decoding a non-OK response on either protocol yields an error that
// wraps the original sentinel, so client-side errors.Is(err,
// ccam.ErrNotFound), errors.Is(err, ccam.ErrOverloaded) etc. keep
// working across the network exactly as they do in-process.
package wire

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"ccam"
)

// Code is a stable wire error code. Codes are part of the protocol:
// existing values never change meaning; new codes are only appended.
type Code uint8

// Wire error codes.
const (
	// CodeOK reports success.
	CodeOK Code = 0
	// CodeNotFound: a node, edge or path the request named is absent
	// (ccam.ErrNotFound).
	CodeNotFound Code = 1
	// CodeNodeExists: an insert of a node that is already stored
	// (ccam.ErrNodeExists).
	CodeNodeExists Code = 2
	// CodeEdgeExists: an insert of an edge that is already stored
	// (ccam.ErrEdgeExists).
	CodeEdgeExists Code = 3
	// CodeEdgeMissing: an edge operation on an absent edge
	// (ccam.ErrEdgeMissing).
	CodeEdgeMissing Code = 4
	// CodeCanceled: the request's context was canceled — usually the
	// client disconnected mid-query (context.Canceled).
	CodeCanceled Code = 5
	// CodeDeadline: the request's deadline expired before the query
	// finished (context.DeadlineExceeded).
	CodeDeadline Code = 6
	// CodeOverloaded: admission control shed the request before it ran
	// (ccam.ErrOverloaded); retry after a backoff.
	CodeOverloaded Code = 7
	// CodeClosed: the store behind the server is closed or draining
	// (ccam.ErrClosed).
	CodeClosed Code = 8
	// CodeChecksum: a stored page failed checksum verification
	// (ccam.ErrChecksum).
	CodeChecksum Code = 9
	// CodeCorrupted: a stored page's structure is invalid
	// (ccam.ErrCorruptedPage).
	CodeCorrupted Code = 10
	// CodeNoPath: a search query found no path (ccam.ErrNoPath).
	CodeNoPath Code = 11
	// CodeBadRequest: the request itself was malformed (unknown op,
	// truncated frame, invalid JSON, oversized payload).
	CodeBadRequest Code = 12
	// CodeInternal: any other server-side failure.
	CodeInternal Code = 13
	// CodeInvalidTour: a tour evaluation got a malformed tour
	// (ccam.ErrInvalidTour).
	CodeInvalidTour Code = 14
	// CodeParse: a CCAM-QL statement the parser rejected
	// (ccam.ErrQueryParse).
	CodeParse Code = 15
	// CodeUnsupported: a CCAM-QL statement that parses but that the
	// planner cannot build a plan for (ccam.ErrQueryUnsupported).
	CodeUnsupported Code = 16
)

// ErrBadRequest is the sentinel behind CodeBadRequest: the request was
// malformed and never reached the store.
var ErrBadRequest = errors.New("wire: bad request")

// ErrInternal is the sentinel behind CodeInternal: an unclassified
// server-side failure.
var ErrInternal = errors.New("wire: internal server error")

// codeEntry is one row of the error table: the code, its stable
// snake_case name (the JSON "code" field), the HTTP status the JSON
// protocol responds with, and the sentinel the code encodes/decodes.
type codeEntry struct {
	code     Code
	name     string
	status   int
	sentinel error
}

// codeTable is the single source of truth mapping exported sentinels
// to stable wire codes and HTTP statuses. Order matters for encoding:
// CodeOf returns the first row whose sentinel matches, so more
// specific sentinels (ErrNodeExists before the generic ErrNotFound
// wrapping) must come first.
var codeTable = []codeEntry{
	{CodeOverloaded, "overloaded", http.StatusServiceUnavailable, ccam.ErrOverloaded},
	{CodeClosed, "closed", http.StatusServiceUnavailable, ccam.ErrClosed},
	{CodeCanceled, "canceled", 499 /* client closed request */, context.Canceled},
	{CodeDeadline, "deadline_exceeded", http.StatusGatewayTimeout, context.DeadlineExceeded},
	{CodeNodeExists, "node_exists", http.StatusConflict, ccam.ErrNodeExists},
	{CodeEdgeExists, "edge_exists", http.StatusConflict, ccam.ErrEdgeExists},
	{CodeEdgeMissing, "edge_missing", http.StatusNotFound, ccam.ErrEdgeMissing},
	{CodeNotFound, "not_found", http.StatusNotFound, ccam.ErrNotFound},
	{CodeNoPath, "no_path", http.StatusUnprocessableEntity, ccam.ErrNoPath},
	{CodeChecksum, "checksum", http.StatusInternalServerError, ccam.ErrChecksum},
	{CodeCorrupted, "corrupted", http.StatusInternalServerError, ccam.ErrCorruptedPage},
	{CodeInvalidTour, "invalid_tour", http.StatusUnprocessableEntity, ccam.ErrInvalidTour},
	{CodeParse, "parse_error", http.StatusBadRequest, ccam.ErrQueryParse},
	{CodeUnsupported, "unsupported_query", http.StatusBadRequest, ccam.ErrQueryUnsupported},
	{CodeBadRequest, "bad_request", http.StatusBadRequest, ErrBadRequest},
	{CodeInternal, "internal", http.StatusInternalServerError, ErrInternal},
}

// CodeOf classifies an error into its wire code. A nil error is
// CodeOK; an error matching no table row is CodeInternal.
func CodeOf(err error) Code {
	if err == nil {
		return CodeOK
	}
	for _, e := range codeTable {
		if errors.Is(err, e.sentinel) {
			return e.code
		}
	}
	return CodeInternal
}

// entry returns the table row of c, falling back to CodeInternal for
// unknown codes (a newer server may send codes this client predates).
func (c Code) entry() codeEntry {
	for _, e := range codeTable {
		if e.code == c {
			return e
		}
	}
	return codeEntry{c, fmt.Sprintf("code_%d", c), http.StatusInternalServerError, ErrInternal}
}

// String returns the stable snake_case name of the code ("not_found",
// "overloaded", ...), the JSON protocol's "code" field.
func (c Code) String() string {
	if c == CodeOK {
		return "ok"
	}
	return c.entry().name
}

// HTTPStatus returns the HTTP status the JSON protocol pairs with the
// code (200 for CodeOK).
func (c Code) HTTPStatus() int {
	if c == CodeOK {
		return http.StatusOK
	}
	return c.entry().status
}

// Sentinel returns the in-process sentinel the code stands for, so
// decoded errors satisfy errors.Is against it. CodeOK has none (nil).
func (c Code) Sentinel() error {
	if c == CodeOK {
		return nil
	}
	return c.entry().sentinel
}

// CodeFromName resolves a stable code name back to its Code (the JSON
// decode path). Unknown names resolve to CodeInternal.
func CodeFromName(name string) Code {
	if name == "ok" {
		return CodeOK
	}
	for _, e := range codeTable {
		if e.name == name {
			return e.code
		}
	}
	return CodeInternal
}

// Error is the client-side form of a non-OK response: the wire code
// plus the server's message. It wraps the code's sentinel, so
// errors.Is(err, ccam.ErrNotFound) (etc.) holds after a round trip
// over either protocol.
type Error struct {
	Code Code
	// Message is the server's human-readable error string.
	Message string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("wire: %s", e.Code)
	}
	return fmt.Sprintf("wire: %s: %s", e.Code, e.Message)
}

// Unwrap exposes the code's sentinel to errors.Is.
func (e *Error) Unwrap() error { return e.Code.Sentinel() }

// RemoteError builds the error a client surfaces for a non-OK
// response. CodeOK yields nil.
func RemoteError(c Code, msg string) error {
	if c == CodeOK {
		return nil
	}
	return &Error{Code: c, Message: msg}
}
