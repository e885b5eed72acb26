package main

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cli"
)

// TestServeDaemonUsageErrors pins flag handling: bad invocations are usage
// errors (exit 2), while an address that cannot be listened on is a
// runtime failure (exit 1) that leaves no worker pool running.
func TestServeDaemonUsageErrors(t *testing.T) {
	var stderr bytes.Buffer
	err := run([]string{"-definitely-not-a-flag"}, &stderr)
	if err == nil {
		t.Fatal("bad flag accepted")
	}
	err = run([]string{"positional"}, &stderr)
	if err == nil {
		t.Fatal("positional argument accepted")
	}
	err = run([]string{"-numa=on"}, &stderr)
	if err == nil {
		t.Fatal("-numa=on accepted")
	}
	var ue cli.UsageError
	err = run([]string{"-workers", "2"}, &stderr)
	if !errors.As(err, &ue) || !strings.Contains(ue.Msg, "-listen") {
		t.Fatalf("no -listen: %v, want a cli.UsageError naming -listen", err)
	}
	before := runtime.NumGoroutine()
	err = run([]string{"-listen", "127.0.0.1:-1", "-workers", "4"}, &stderr)
	if err == nil || errors.As(err, &ue) {
		t.Fatalf("unusable address: %v, want a runtime error, not a cli.UsageError", err)
	}
	if n := runtime.NumGoroutine() - before; n > 0 {
		t.Fatalf("failed listen left %d goroutines running: the worker pool started before the listen", n)
	}
}
