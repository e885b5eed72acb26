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
