package server

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind: a
// server's listeners, handlers, WAL group commit and admission waits
// start goroutines, and each must end with its request or its Server.
// After the last test the goroutine count is polled until it is back at
// what it was before the first; past the deadline every stack is dumped
// and the run fails. Under -fuzz one more is allowed, if it is the one
// os/signal's loop runs for the fuzzing engine's signal.NotifyContext.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if flag.Lookup("test.fuzz").Value.String() != "" && strings.Count(stacks(), "\nos/signal.loop()") == 1 {
		base++
	}
	if code == 0 && !settles(base, 10*time.Second) {
		fmt.Fprintf(os.Stderr, "server: %d goroutines still running after the tests, %d before them:\n%s\n",
			runtime.NumGoroutine(), base, stacks())
		code = 1
	}
	os.Exit(code)
}

// stacks returns every goroutine's stack.
func stacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
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
