package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/transport"
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

// The daemon binary is built once per test run, into a directory TestMain
// removes afterwards.
var (
	buildOnce sync.Once
	buildDir  string
	binPath   string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// newRNG is the tests' deterministic generator: one seed fully determines
// a problem.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// startDaemon runs the real binary on a random loopback port with args,
// and env appended to the test's environment. It returns the daemon's base
// URL and a stop that sends SIGTERM, requires a clean exit within 30 s and
// returns everything the daemon wrote to stderr. A test that fails before
// calling stop leaves the process to a cleanup that kills it.
func startDaemon(t *testing.T, env []string, args ...string) (baseURL string, stop func() string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "mttkrp-serve-e2e"); buildErr != nil {
			return
		}
		binPath = filepath.Join(buildDir, "mttkrp-serve")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}

	cmd := exec.Command(binPath, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil { // stop never waited: the test failed first
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// The daemon prints the resolved address before serving.
	addrRE := regexp.MustCompile(`listening on (http://\S+)`)
	addrCh := make(chan string, 1)
	tail := make(chan string, 1)
	go func() {
		var lines []string
		sc := bufio.NewScanner(stderr)
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
	case text := <-tail:
		t.Fatalf("daemon exited before listening:\n%s", text)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never reported its listen address")
	}

	stop = func() string {
		t.Helper()
		// Read stderr to EOF before Wait — Wait closes the pipe, which can
		// race the scanner out of the daemon's final lines.
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		var text string
		select {
		case text = <-tail:
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not drain within 30s of SIGTERM")
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
		}
		return text
	}
	return baseURL, stop
}

// TestE2EHTTPListenerDrain is the end-to-end exercise the CI listener job
// runs: build the real binary, start it with -listen on a random port,
// drive it with repro.Client — one dense and one sparse MTTKRP (each
// checked against the local kernel), one CP, one quota-rejected request,
// one CP header above the sweep cap — then SIGTERM it and assert a clean
// drain (exit status 0, drain summary on stderr).
func TestE2EHTTPListenerDrain(t *testing.T) {
	// A 64 KiB in-flight byte cap: the small workload requests sail
	// through; the deliberately large one is quota-rejected — no timing
	// dependence, unlike a rate-bucket refill.
	baseURL, stop := startDaemon(t, nil, "-workers", "2", "-maxinflight", "65536")

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

	// One sparse MTTKRP, op 3 of the one wire format (~5 KiB of
	// coordinates, values and factors), checked against the local sparse
	// kernel.
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

	// One CP asking for more sweeps than the serving cap. Client.CP
	// refuses to send such a header, so write it raw: WriteHeader does not
	// validate. The daemon must refuse it from the header alone.
	var body bytes.Buffer
	h := &transport.Header{Op: transport.OpCP, Rank: 2, Iters: transport.MaxIters + 1, Dims: []int{4, 3, 2}}
	if err := transport.WriteHeader(&body, h); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/cp", "application/octet-stream", &body)
	if err != nil {
		t.Fatalf("raw CP post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("CP with %d sweeps: HTTP %d, want 400", h.Iters, resp.StatusCode)
	}

	stderrText := stop()
	if !strings.Contains(stderrText, "drained —") {
		t.Fatalf("missing drain summary on stderr:\n%s", stderrText)
	}
	if !strings.Contains(stderrText, "quota-rejected") {
		t.Fatalf("drain summary lacks quota counters:\n%s", stderrText)
	}
	if !strings.Contains(stderrText, " 1 bad,") {
		t.Fatalf("drain summary does not count the over-cap CP as the one bad request:\n%s", stderrText)
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
	root := t.TempDir()
	x := repro.RandomTensor(newRNG(21), 24, 20, 16)
	if err := repro.WriteDenseFile(filepath.Join(root, "x.dsnt"), x); err != nil {
		t.Fatalf("WriteDenseFile: %v", err)
	}
	info, err := repro.StatDenseFile(filepath.Join(root, "x.dsnt"))
	if err != nil {
		t.Fatalf("StatDenseFile: %v", err)
	}

	baseURL, stop := startDaemon(t, nil, "-workers", "2", "-tensor-root", root)
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

	if stderrText := stop(); !strings.Contains(stderrText, "drained —") {
		t.Fatalf("missing drain summary on stderr:\n%s", stderrText)
	}
}

// TestE2EHTTPNoSIMD pins the daemon-level face of the simd bit-identity
// contract: a daemon started with MTTKRP_NOSIMD=1 (the scalar dispatch,
// selected at startup) serves an internal-mode MTTKRP whose every element
// is bit-identical to the local computation under this process's default,
// possibly vectorized, dispatch. An internal mode runs the 2-step kernel,
// which gives the same bits at every width, so the daemon's lease width
// does not enter the comparison.
func TestE2EHTTPNoSIMD(t *testing.T) {
	baseURL, stop := startDaemon(t, []string{"MTTKRP_NOSIMD=1"}, "-workers", "2")
	c := repro.NewClient(baseURL)
	c.APIKey = "e2e-nosimd"

	rng := newRNG(3)
	x := repro.RandomTensor(rng, 12, 10, 8)
	u := make([]repro.Matrix, x.Order())
	for k := range u {
		u[k] = repro.RandomMatrix(x.Dim(k), 5, rng)
	}
	got, _, err := c.MTTKRP(repro.Matrix{}, x, u, 1, repro.MethodAuto)
	if err != nil {
		t.Fatalf("served MTTKRP: %v", err)
	}
	want := repro.MTTKRP(x, u, 1, repro.MTTKRPOptions{})
	if got.R != want.R || got.C != want.C {
		t.Fatalf("served %dx%d, want %dx%d", got.R, got.C, want.R, want.C)
	}
	for i := 0; i < want.R; i++ {
		for j := 0; j < want.C; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("scalar-dispatch element (%d,%d) = %v, default-dispatch %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}

	if stderrText := stop(); !strings.Contains(stderrText, "drained —") {
		t.Fatalf("missing drain summary on stderr:\n%s", stderrText)
	}
}
