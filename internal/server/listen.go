package server

import (
	"net/http"
	"time"
)

// Connection-level bounds for the binaries' listeners. A peer that opens
// a socket and stalls — mid request line, mid body, or idle between
// requests — is cut off instead of pinning a goroutine and a descriptor
// for ever. There is no write timeout: /swap and /save legitimately run
// for as long as a snapshot takes to stream.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second // an 8 MiB /add body over a slow link
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer builds the http.Server pqserve and pqrouter listen with.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}
