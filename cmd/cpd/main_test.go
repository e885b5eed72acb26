package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmallRandomTensor(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-dims", "8,7,6", "-rank", "2", "-maxiters", "3", "-tol", "-1", "-threads", "2", "-seed", "4"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"tensor [8 7 6]", "converged: fit", "component weights"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunMultiSweepAndMethods runs the default dimension-tree sweep and
// every per-mode method, with and without -nonneg: each pair must print
// the same fit.
func TestRunMultiSweepAndMethods(t *testing.T) {
	fit := func(extra ...string) string {
		args := append([]string{"-dims", "6,5,4", "-rank", "2", "-maxiters", "2", "-tol", "-1", "-threads", "2"}, extra...)
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err != nil {
			t.Errorf("run %v: %v", extra, err)
		}
		_, rest, ok := strings.Cut(out.String(), "converged: fit")
		if !ok {
			t.Errorf("run %v printed no fit:\n%s", extra, out.String())
		}
		f, _, _ := strings.Cut(rest, " after")
		return f
	}
	for _, nonneg := range [][]string{nil, {"-nonneg"}} {
		want := fit(nonneg...)
		for _, m := range []string{"2step", "1step", "reorder"} {
			if got := fit(append([]string{"-method", m}, nonneg...)...); got != want {
				t.Errorf("-method %s %v: %q, default sweep %q", m, nonneg, got, want)
			}
		}
	}
}

func TestRunSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tns")
	var out, errOut bytes.Buffer
	if err := run([]string{"-dims", "5,4,3", "-rank", "2", "-maxiters", "1", "-tol", "-1", "-save", path}, &out, &errOut); err != nil {
		t.Fatalf("save run: %v", err)
	}
	out.Reset()
	if err := run([]string{"-load", path, "-rank", "2", "-maxiters", "1", "-tol", "-1"}, &out, &errOut); err != nil {
		t.Fatalf("load run: %v", err)
	}
	if !strings.Contains(out.String(), "tensor [5 4 3]") {
		t.Errorf("loaded tensor not reported:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                                   // neither -dims nor -fmri
		{"-dims", "abc"},                     // malformed dims
		{"-dims", "4,4", "-method", "bogus"}, // unknown method
		{"-dims", "4,4", "-multisweep"},      // removed: the default sweep
		{"-load", "/nonexistent/path.tns"},
	} {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
