package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro"
	"repro/internal/simd"
)

// decodeAll parses every response line the daemon wrote.
func decodeAll(t *testing.T, out string) map[string]response {
	t.Helper()
	got := make(map[string]response)
	dec := json.NewDecoder(strings.NewReader(out))
	for dec.More() {
		var r response
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("bad response stream: %v\noutput:\n%s", err, out)
		}
		got[r.ID] = r
	}
	return got
}

// TestServeDaemonEndToEnd drives the daemon over the stdin-jsonl protocol:
// concurrent same-shape MTTKRP requests, a CP run, a stats probe, and
// error paths — and checks the MTTKRP checksum against a direct
// computation on the same deterministic problem.
func TestServeDaemonEndToEnd(t *testing.T) {
	script := strings.Join([]string{
		`{"id":"m1","op":"mttkrp","dims":[12,10,8],"rank":5,"mode":1,"seed":3}`,
		`{"id":"m2","op":"mttkrp","dims":[12,10,8],"rank":5,"mode":1,"seed":3}`,
		`{"id":"m3","op":"mttkrp","dims":[12,10,8],"rank":5,"mode":1,"seed":3,"method":"2step"}`,
		`{"id":"m4","op":"mttkrp","dims":[12,10,8],"rank":5,"mode":1,"seed":3,"method":"two-step"}`,
		`{"id":"c1","op":"cp","dims":[9,8,7],"rank":3,"iters":3,"seed":1}`,
		`{"id":"sp1","op":"mttkrp","dims":[12,10,8],"rank":5,"mode":1,"seed":3,"density":0.1}`,
		`{"id":"bad-op","op":"frobnicate"}`,
		`{"id":"bad-dims","op":"mttkrp","dims":[12],"rank":5,"mode":0,"seed":3}`,
		`{"id":"bad-density","op":"mttkrp","dims":[12,10,8],"rank":5,"mode":1,"seed":3,"density":2}`,
		`{"id":"bad-method","op":"mttkrp","dims":[12,10,8],"rank":5,"mode":1,"seed":3,"method":"fft"}`,
		``,
		`# comments and blank lines are ignored`,
		`{"id":"s1","op":"stats"}`,
	}, "\n")

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-workers", "4"}, strings.NewReader(script), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	got := decodeAll(t, stdout.String())
	if len(got) != 11 {
		t.Fatalf("got %d responses, want 11:\n%s", len(got), stdout.String())
	}

	// Reference checksum computed directly on the same deterministic
	// problem the daemon generated.
	rng := newRNG(3)
	x := repro.RandomTensor(rng, 12, 10, 8)
	u := make([]repro.Matrix, 3)
	for k := range u {
		u[k] = repro.RandomMatrix(x.Dim(k), 5, rng)
	}
	m := repro.MTTKRP(x, u, 1, repro.MTTKRPOptions{Threads: 2})
	want := matSum(m)

	for _, id := range []string{"m1", "m2", "m3", "m4"} {
		r := got[id]
		if !r.OK {
			t.Fatalf("%s failed: %s", id, r.Err)
		}
		if r.Rows != 10 || r.Cols != 5 {
			t.Fatalf("%s: result %dx%d, want 10x5", id, r.Rows, r.Cols)
		}
		if math.Abs(r.Sum-want) > 1e-8*math.Abs(want) {
			t.Fatalf("%s: sum %v, want %v", id, r.Sum, want)
		}
	}
	cp := got["c1"]
	if !cp.OK || cp.Iters != 3 || cp.Fit <= 0 || cp.Fit > 1 {
		t.Fatalf("c1: %+v", cp)
	}

	// The sparse request runs against the daemon's deterministic COO
	// problem; recompute its checksum through the shape-generic facade.
	srng := newRNG(3)
	sx := repro.RandomSparseTensor(srng, 0.1, 12, 10, 8)
	su := make([]repro.Matrix, 3)
	for k := range su {
		su[k] = repro.RandomMatrix(sx.Dim(k), 5, srng)
	}
	sparseWant := matSum(repro.MTTKRP(sx, su, 1, repro.MTTKRPOptions{Threads: 2}))
	sp := got["sp1"]
	if !sp.OK {
		t.Fatalf("sp1 failed: %s", sp.Err)
	}
	if sp.Rows != 10 || sp.Cols != 5 {
		t.Fatalf("sp1: result %dx%d, want 10x5", sp.Rows, sp.Cols)
	}
	if math.Abs(sp.Sum-sparseWant) > 1e-8*math.Abs(sparseWant) {
		t.Fatalf("sp1: sum %v, want %v", sp.Sum, sparseWant)
	}

	for _, id := range []string{"bad-op", "bad-dims", "bad-density", "bad-method"} {
		if r := got[id]; r.OK || r.Err == "" {
			t.Fatalf("%s: expected an error response, got %+v", id, r)
		}
	}
	st := got["s1"]
	if !st.OK || st.Stats == nil {
		t.Fatalf("s1: %+v", st)
	}
	if !strings.Contains(stderr.String(), "done —") {
		t.Fatalf("missing summary on stderr:\n%s", stderr.String())
	}
}

// TestServeDaemonResourceCaps pins that one request line cannot allocate
// an unbounded tensor and that the problem cache stays bounded.
func TestServeDaemonResourceCaps(t *testing.T) {
	c := &problemCache{}
	if _, err := c.get([]int{4096, 4096, 4096}, 1, 1, 0); err == nil {
		t.Fatal("oversized tensor accepted")
	}
	if _, err := c.get([]int{2, 2, 2, 2, 2, 2, 2, 2, 2}, 1, 1, 0); err == nil {
		t.Fatal("order-9 tensor accepted (cap is 8)")
	}
	if _, err := c.get([]int{4, 3, 2}, 2, 1, 1.5); err == nil {
		t.Fatal("density > 1 accepted")
	}
	for seed := int64(0); seed < maxCachedProbs+10; seed++ {
		if _, err := c.get([]int{4, 3, 2}, 2, seed, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.m) > maxCachedProbs {
		t.Fatalf("%d problems cached, cap is %d", len(c.m), maxCachedProbs)
	}
}

// TestServeDaemonUsageErrors pins flag handling.
func TestServeDaemonUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-definitely-not-a-flag"}, strings.NewReader(""), &stdout, &stderr)
	if err == nil {
		t.Fatal("bad flag accepted")
	}
	err = run([]string{"positional"}, strings.NewReader(""), &stdout, &stderr)
	if err == nil {
		t.Fatal("positional argument accepted")
	}
}

// TestServeDaemonNoSIMD pins the -nosimd escape hatch: the daemon selects
// the scalar dispatch, and the served checksum still matches a direct
// computation under the default (possibly vectorized) dispatch — the
// daemon-level face of the simd bit-identity contract.
func TestServeDaemonNoSIMD(t *testing.T) {
	prev := simd.Active()
	defer simd.Use(prev)

	// Reference under the default dispatch, before the daemon swaps it.
	rng := newRNG(3)
	x := repro.RandomTensor(rng, 12, 10, 8)
	u := make([]repro.Matrix, 3)
	for k := range u {
		u[k] = repro.RandomMatrix(x.Dim(k), 5, rng)
	}
	want := matSum(repro.MTTKRP(x, u, 1, repro.MTTKRPOptions{Threads: 2}))

	script := `{"id":"m1","op":"mttkrp","dims":[12,10,8],"rank":5,"mode":1,"seed":3}`
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-workers", "2", "-nosimd"}, strings.NewReader(script), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if simd.Active() != simd.Scalar() {
		t.Error("-nosimd did not select the scalar dispatch")
	}
	r := decodeAll(t, stdout.String())["m1"]
	if !r.OK {
		t.Fatalf("m1 failed: %s", r.Err)
	}
	if r.Sum != want {
		t.Fatalf("scalar-dispatch sum %v != default-dispatch sum %v", r.Sum, want)
	}
}
