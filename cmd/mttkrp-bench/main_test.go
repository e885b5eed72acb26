package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig4Tiny(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-fig", "4a", "-scale", "0.0002", "-maxthreads", "2", "-trials", "1"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"MTTKRP benchmark suite", "# done in"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunFig5TinyWithCSV(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	err := run([]string{"-fig", "5", "-scale", "0.0002", "-maxthreads", "2", "-trials", "1", "-csvdir", dir}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no CSV files written to %s (err %v)", dir, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Errorf("CSV file %s is empty", files[0])
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-fig", "99"}, &out, &errOut); err == nil {
		t.Fatal("run with unknown figure succeeded, want error")
	}
}

func TestRunServeLoadTiny(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-serve", "-conc", "2", "-requests", "8", "-sdims", "10x8x6", "-rank", "4"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"MTTKRP serving load", "Serving throughput", "OBS serve conc=2", "# done in"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunServeMixTiny drives the mixed-workload run end to end: per-class
// rows with a p99 column.
func TestRunServeMixTiny(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-serve", "-mix", "small:4,large:1", "-conc", "2", "-requests", "12", "-sdims", "16x12x10", "-rank", "8"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"Mixed serving load", "small", "large", "p99 ms", "OBS mix conc=2", "# done in"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunServeHTTPMixTiny drives the mixed workload over the in-process
// HTTP listener.
func TestRunServeHTTPMixTiny(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-serve-http", "-mix", "small:4,large:1", "-conc", "2", "-requests", "12", "-sdims", "16x12x10", "-rank", "8"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"HTTP mixed serving load", "small", "large", "p99 ms", "rejected", "# done in"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunServeSparseTiny drives the COO workload through the in-process
// serving load generator: the table is tagged with the layout and nnz,
// and the naive-vs-served comparison runs the sparse kernel on both sides.
func TestRunServeSparseTiny(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-serve", "-sparse", "-density", "0.05", "-conc", "2", "-requests", "8", "-sdims", "14x12x10", "-rank", "4"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"Serving throughput", "sparse d=0.05", "nnz", "OBS serve conc=2", "# done in"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunServeHTTPSparseTiny ships COO payloads over the v2 sparse wire
// format against the in-process listener.
func TestRunServeHTTPSparseTiny(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-serve-http", "-sparse", "-conc", "2", "-requests", "8", "-sdims", "14x12x10", "-rank", "4"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"HTTP transport throughput", "sparse d=0.01", "decode", "compute", "# done in"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunSparseFlagValidation(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-sparse"}, &out, &errOut); err == nil {
		t.Fatal("-sparse without a serving mode accepted")
	}
	if err := run([]string{"-serve", "-density", "0.1"}, &out, &errOut); err == nil {
		t.Fatal("-density without -sparse accepted")
	}
	if err := run([]string{"-serve", "-sparse", "-density", "2"}, &out, &errOut); err == nil {
		t.Fatal("out-of-range -density accepted")
	}
}

func TestRunMixFlagValidation(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-mix", "small:1"}, &out, &errOut); err == nil {
		t.Fatal("-mix without a serving mode accepted")
	}
	if err := run([]string{"-serve", "-mix", "nope"}, &out, &errOut); err == nil {
		t.Fatal("malformed -mix accepted")
	}
	if err := run([]string{"-serve", "-mix", "galactic:1"}, &out, &errOut); err == nil {
		t.Fatal("unknown mix class accepted")
	}
}

func TestRunServeBadDims(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-serve", "-sdims", "nope"}, &out, &errOut); err == nil {
		t.Fatal("bad -sdims accepted")
	}
}

// TestRunServeHTTPTiny drives the HTTP load generator against its
// in-process loopback listener: the acceptance path for
// `mttkrp-bench -serve-http` — req/s plus p50/p95 with decode time
// separated from kernel time.
func TestRunServeHTTPTiny(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-serve-http", "-conc", "2", "-requests", "8", "-sdims", "10x8x6", "-rank", "4"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	s := out.String()
	for _, want := range []string{
		"MTTKRP HTTP serving load", "HTTP transport throughput",
		"OBS http conc=2", "decode", "compute", "p50 ms", "p95 ms", "# done in",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunServeModesExclusive(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-serve", "-serve-http"}, &out, &errOut); err == nil {
		t.Fatal("-serve with -serve-http accepted")
	}
}

// TestRunKernelsTiny drives the per-kernel GFLOP/s table end to end: one
// row per (kernel, size) with a scalar column, a vector column and the
// speedup ratio the acceptance criteria gate on.
func TestRunKernelsTiny(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-kernels", "-kernel-mintime", "1ms"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	s := out.String()
	for _, want := range []string{
		"Kernel micro-benchmarks", "scalar GFLOP/s", "gemm4x4", "gemm12x4", "hadexpand", "# done in",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunSimdFlagValidation(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-simd", "off"}, &out, &errOut); err == nil {
		t.Fatal("-simd without a serving or kernels mode accepted")
	}
	if err := run([]string{"-serve", "-simd", "sometimes"}, &out, &errOut); err == nil {
		t.Fatal("malformed -simd accepted")
	}
	if err := run([]string{"-kernels", "-serve"}, &out, &errOut); err == nil {
		t.Fatal("-kernels with -serve accepted")
	}
}

// TestRunServeSimdOff is the A/B's off half at smoke scale: the table
// banner must record the scalar dispatch so runs are attributable.
func TestRunServeSimdOff(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-serve", "-simd=off", "-conc", "2", "-requests", "8", "-sdims", "10x8x6", "-rank", "4"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(out.String(), "simd off") {
		t.Errorf("banner missing simd state:\n%s", out.String())
	}
}
