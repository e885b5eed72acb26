// Command mttkrp-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	mttkrp-bench -fig all                  # every figure at laptop scale
//	mttkrp-bench -fig 5 -scale 0.05        # Figure 5 at 5% of paper size
//	mttkrp-bench -fig 4a -maxthreads 12    # Figure 4a with a 1..12 sweep
//	mttkrp-bench -fig 7 -paper             # paper-sized (needs a big server)
//	mttkrp-bench -kernels                  # per-kernel GFLOP/s table, scalar vs vectorized
//	mttkrp-bench -diff-base BENCH_a.json -diff-head BENCH_b.json  # delta table between two CI bench artifacts
//
// Each figure prints one table per subfigure with the same series the
// paper plots, followed by OBS lines summarizing the shape claims
// (speedups, ratios) recorded in EXPERIMENTS.md. The serving stack is
// measured by cmd/mttkrp-ledger and the go-test serving benchmarks.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/parallel"
)

func main() {
	cli.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the benchmark suite with explicit arguments and output
// streams so tests can drive it end to end.
func run(args []string, stdout, stderr io.Writer) error {
	// Banners report the host's actual scheduler width so runs on different
	// machines are comparable; that is reporting, not dispatch sizing, so
	// the raw read is deliberate.
	//lint:ignore mttkrp/effectiveresolve banners report the host width, not a dispatch width
	procs := runtime.GOMAXPROCS(0)
	fs := flag.NewFlagSet("mttkrp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: 4a, 4b, 5, 6, 7, 8, or all")
	scale := fs.Float64("scale", 0.01, "problem size as a fraction of the paper's (entry count)")
	paper := fs.Bool("paper", false, "use the paper's full problem sizes (overrides -scale; needs ~10 GB)")
	maxThreads := fs.Int("maxthreads", parallel.DefaultThreads(), "top of the thread sweep")
	trials := fs.Int("trials", 3, "timed repetitions per point (median reported)")
	csvDir := fs.String("csvdir", "", "also write every table as a CSV file into this directory")
	kernelsMode := fs.Bool("kernels", false, "print the per-kernel GFLOP/s table (scalar vs vectorized) instead of figure regeneration")
	kernelTime := fs.Duration("kernel-mintime", 20*time.Millisecond, "kernels: minimum measured time per cell (larger = steadier numbers)")
	diffBase := fs.String("diff-base", "", "base go-test-json benchmark artifact (BENCH_<sha>.json); with -diff-head, print the per-benchmark delta table and exit")
	diffHead := fs.String("diff-head", "", "head go-test-json benchmark artifact to compare against -diff-base")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.UsageError{} // the FlagSet already printed message and usage
	}

	if (*diffBase == "") != (*diffHead == "") {
		return cli.UsageError{Msg: "-diff-base and -diff-head must be given together"}
	}
	if *diffBase != "" {
		if *kernelsMode {
			return cli.UsageError{Msg: "-diff-base/-diff-head is a standalone mode; drop -kernels"}
		}
		t, err := bench.DiffFiles(*diffBase, *diffHead)
		if err != nil {
			return err
		}
		t.Fprint(stdout)
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, []*bench.Table{t}); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
		}
		return nil
	}
	if *kernelsMode {
		fmt.Fprintf(stdout, "# MTTKRP kernel micro-benchmarks — GOMAXPROCS=%d\n\n", procs)
		start := time.Now()
		t, err := bench.Kernels(bench.KernelsConfig{
			MinTime: *kernelTime,
			Out:     func(format string, a ...any) { fmt.Fprintf(stdout, format, a...) },
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		t.Fprint(stdout)
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, []*bench.Table{t}); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
		}
		fmt.Fprintf(stdout, "# done in %v\n", time.Since(start).Round(time.Millisecond))
		return nil
	}

	cfg := bench.Config{
		Scale:      *scale,
		MaxThreads: *maxThreads,
		Trials:     *trials,
		Out:        stdout,
	}
	if *paper {
		cfg.Scale = 1.0
	}

	fmt.Fprintf(stdout, "# MTTKRP benchmark suite — scale=%.4g, threads 1..%d, %d trials, GOMAXPROCS=%d\n\n",
		cfg.Scale, cfg.MaxThreads, cfg.Trials, procs)

	start := time.Now()
	ran := false
	var tables []*bench.Table
	want := strings.ToLower(*fig)
	runFig := func(name string, f func() []*bench.Table) {
		if want == "all" || want == name || (len(name) > 1 && want == name[:1] && name[1] >= 'a') {
			tables = append(tables, f()...)
			ran = true
		}
	}
	runFig("4a", func() []*bench.Table { return []*bench.Table{bench.Fig4(cfg, 25)} })
	runFig("4b", func() []*bench.Table { return []*bench.Table{bench.Fig4(cfg, 50)} })
	runFig("5", func() []*bench.Table { return bench.Fig5(cfg) })
	runFig("6", func() []*bench.Table { return bench.Fig6(cfg) })
	runFig("7", func() []*bench.Table { return bench.Fig7(cfg) })
	runFig("8", func() []*bench.Table { return bench.Fig8(cfg) })
	if !ran {
		return cli.UsageError{Msg: fmt.Sprintf("unknown figure %q (want 4a, 4b, 5, 6, 7, 8, or all)", *fig)}
	}
	if *csvDir != "" {
		if err := writeCSVs(*csvDir, tables); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
		fmt.Fprintf(stdout, "# wrote %d CSV files to %s\n", len(tables), *csvDir)
	}
	fmt.Fprintf(stdout, "# done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// writeCSVs saves each table as <slug-of-title>.csv under dir.
func writeCSVs(dir string, tables []*bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range tables {
		name := fmt.Sprintf("%02d-%s.csv", i, cli.Slug(t.Title))
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
