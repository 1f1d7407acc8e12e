package server

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestStalledConnectionIsClosed: a peer that sends half a request line
// and then stalls is hung up on by the server, not held open.
func TestStalledConnectionIsClosed(t *testing.T) {
	hs := NewHTTPServer("", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("listener timeouts not set: header %v, read %v, idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	// Same server, the header bound shortened so the test need not sit
	// out the production constant.
	hs.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /sea"); err != nil {
		t.Fatal(err)
	}
	// Reading until the server hangs up: EOF (a nil ReadAll error) is the
	// server closing; only the client-side safety deadline is a failure.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server held a stalled connection open: %v", err)
	}
}
