package server

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind: a
// server's listeners, handlers, WAL group commit and admission waits
// start goroutines, and each must end with its request or its Server.
// After the last test the goroutine count is polled until it is back at
// what it was before the first; past the deadline every stack is dumped
// and the run fails.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !settles(base, 10*time.Second) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "server: %d goroutines still running after the tests, %d before them:\n%s\n",
			runtime.NumGoroutine(), base, buf)
		code = 1
	}
	os.Exit(code)
}

// settles reports whether the goroutine count comes back to base
// before the deadline, checking it once a millisecond.
func settles(base int, deadline time.Duration) bool {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	timeout := time.After(deadline)
	for runtime.NumGoroutine() > base {
		select {
		case <-tick.C:
		case <-timeout:
			return false
		}
	}
	return true
}
