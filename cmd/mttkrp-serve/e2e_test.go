package main

import (
	"bufio"
	"errors"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro"
)

// assertClose fails t unless got matches want in shape and, element by
// element, within 1e-12.
func assertClose(t *testing.T, what string, got, want repro.Matrix) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s %dx%d, want %dx%d", what, got.R, got.C, want.R, want.C)
	}
	for i := 0; i < want.R; i++ {
		for j := 0; j < want.C; j++ {
			if d := got.At(i, j) - want.At(i, j); d > 1e-12 || d < -1e-12 {
				t.Fatalf("%s result diverges at (%d,%d)", what, i, j)
			}
		}
	}
}

// TestE2EHTTPListenerDrain is the end-to-end exercise the CI listener job
// runs: build the real binary, start it with -listen on a random port,
// drive it with repro.Client — one dense and one sparse MTTKRP (each
// checked against the local kernel), one CP, one quota-rejected request —
// then SIGTERM it and assert a clean drain (exit status 0, drain summary
// on stderr).
func TestE2EHTTPListenerDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "mttkrp-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// A 64 KiB in-flight byte cap: the small workload requests sail
	// through; the deliberately large one is quota-rejected — no timing
	// dependence, unlike a rate-bucket refill.
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-workers", "2", "-maxinflight", "65536")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op after a clean Wait

	// The daemon prints the resolved address before serving.
	sc := bufio.NewScanner(stderr)
	var baseURL string
	addrRE := regexp.MustCompile(`listening on (http://\S+)`)
	deadline := time.After(30 * time.Second)
	addrCh := make(chan string, 1)
	tail := make(chan string, 1)
	go func() {
		var lines []string
		for sc.Scan() {
			line := sc.Text()
			lines = append(lines, line)
			if m := addrRE.FindStringSubmatch(line); m != nil {
				addrCh <- m[1]
			}
		}
		tail <- strings.Join(lines, "\n")
	}()
	select {
	case baseURL = <-addrCh:
	case <-deadline:
		t.Fatal("daemon never reported its listen address")
	}

	c := repro.NewClient(baseURL)
	c.APIKey = "e2e"

	// One MTTKRP, checked against the local kernel on identical inputs.
	x := repro.RandomTensor(newRNG(7), 14, 12, 10) // ~13 KiB payload with factors
	u := make([]repro.Matrix, x.Order())
	rng := newRNG(8)
	for k := range u {
		u[k] = repro.RandomMatrix(x.Dim(k), 6, rng)
	}
	got, tm, err := c.MTTKRP(repro.Matrix{}, x, u, 1, repro.MethodAuto)
	if err != nil {
		t.Fatalf("served MTTKRP: %v", err)
	}
	assertClose(t, "served", got, repro.MTTKRP(x, u, 1, repro.MTTKRPOptions{}))
	if tm.Compute <= 0 {
		t.Fatalf("missing server timing: %+v", tm)
	}

	// One sparse MTTKRP over the v2 wire format (~5 KiB of coordinates,
	// values and factors), checked against the local sparse kernel.
	sx := repro.RandomSparseTensor(newRNG(11), 0.1, 14, 12, 10)
	sgot, _, err := c.SparseMTTKRP(repro.Matrix{}, sx, u, 2, repro.MethodAuto)
	if err != nil {
		t.Fatalf("served sparse MTTKRP: %v", err)
	}
	assertClose(t, "served sparse", sgot, repro.MTTKRP(sx, u, 2, repro.MTTKRPOptions{}))

	// One CP.
	cx := repro.RandomTensor(newRNG(9), 10, 9, 8)
	cp, _, err := c.CP(cx, 3, 4, 42)
	if err != nil {
		t.Fatalf("served CP: %v", err)
	}
	if cp.Iters != 4 || cp.Fit <= 0 || cp.Fit > 1 || len(cp.K.Factors) != 3 {
		t.Fatalf("served CP result: %+v", cp)
	}

	// One quota-rejected request: ~303 KiB of payload against the 64 KiB
	// in-flight cap.
	bx := repro.RandomTensor(newRNG(10), 36, 32, 30)
	bu := make([]repro.Matrix, bx.Order())
	for k := range bu {
		bu[k] = repro.RandomMatrix(bx.Dim(k), 4, rng)
	}
	_, _, err = c.MTTKRP(repro.Matrix{}, bx, bu, 0, repro.MethodAuto)
	var he *repro.TransportError
	if !errors.As(err, &he) || he.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized request: %v, want HTTP 429", err)
	}

	// Clean SIGTERM drain: exit 0 and a drain summary. Read stderr to EOF
	// before Wait — Wait closes the pipe, which can race the scanner out
	// of the daemon's final lines.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var stderrText string
	select {
	case stderrText = <-tail:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain within 30s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
	}
	if !strings.Contains(stderrText, "drained —") {
		t.Fatalf("missing drain summary on stderr:\n%s", stderrText)
	}
	if !strings.Contains(stderrText, "quota-rejected") {
		t.Fatalf("drain summary lacks quota counters:\n%s", stderrText)
	}
	// A post-drain request must fail — the listener is gone.
	if err := c.Healthy(); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestE2EHTTPByRefDrain is the out-of-core flow end to end: the real
// binary with -tensor-root, a tensor file written under the root, one
// by-reference MTTKRP (only factors cross the wire; the server maps the
// file) checked against the local kernel, one sandbox rejection, then a
// clean SIGTERM drain.
func TestE2EHTTPByRefDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "mttkrp-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	root := t.TempDir()
	x := repro.RandomTensor(newRNG(21), 24, 20, 16)
	if err := repro.WriteDenseFile(filepath.Join(root, "x.dsnt"), x); err != nil {
		t.Fatalf("WriteDenseFile: %v", err)
	}
	info, err := repro.StatDenseFile(filepath.Join(root, "x.dsnt"))
	if err != nil {
		t.Fatalf("StatDenseFile: %v", err)
	}

	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-workers", "2", "-tensor-root", root)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	sc := bufio.NewScanner(stderr)
	var baseURL string
	addrRE := regexp.MustCompile(`listening on (http://\S+)`)
	addrCh := make(chan string, 1)
	tail := make(chan string, 1)
	go func() {
		var lines []string
		for sc.Scan() {
			line := sc.Text()
			lines = append(lines, line)
			if m := addrRE.FindStringSubmatch(line); m != nil {
				addrCh <- m[1]
			}
		}
		tail <- strings.Join(lines, "\n")
	}()
	select {
	case baseURL = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never reported its listen address")
	}

	c := repro.NewClient(baseURL)
	c.APIKey = "e2e-byref"

	u := make([]repro.Matrix, x.Order())
	rng := newRNG(22)
	for k := range u {
		u[k] = repro.RandomMatrix(x.Dim(k), 8, rng)
	}
	ref := repro.TensorRefFor(info, "x.dsnt")
	got, tm, err := c.MTTKRPByRef(repro.Matrix{}, ref, x.Dims(), u, 1, repro.MethodAuto)
	if err != nil {
		t.Fatalf("served by-ref MTTKRP: %v", err)
	}
	assertClose(t, "served by-ref", got, repro.MTTKRP(x, u, 1, repro.MTTKRPOptions{}))
	if tm.Compute <= 0 {
		t.Fatalf("missing server timing: %+v", tm)
	}

	// A path escaping the root must be rejected as structurally illegal.
	bad := ref
	bad.Path = "../x.dsnt"
	_, _, err = c.MTTKRPByRef(repro.Matrix{}, bad, x.Dims(), u, 1, repro.MethodAuto)
	var he *repro.TransportError
	if !errors.As(err, &he) || he.StatusCode != http.StatusBadRequest {
		t.Fatalf("escaping ref: %v, want HTTP 400", err)
	}

	// Read stderr to EOF before Wait — Wait closes the pipe, which can
	// race the scanner out of the daemon's final lines.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var stderrText string
	select {
	case stderrText = <-tail:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain within 30s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
	}
	if !strings.Contains(stderrText, "drained —") {
		t.Fatalf("missing drain summary on stderr:\n%s", stderrText)
	}
}
