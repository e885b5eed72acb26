// Command mttkrp-bench regenerates the paper's evaluation figures and
// load-tests the serving runtime.
//
// Usage:
//
//	mttkrp-bench -fig all                  # every figure at laptop scale
//	mttkrp-bench -fig 5 -scale 0.05        # Figure 5 at 5% of paper size
//	mttkrp-bench -fig 4a -maxthreads 12    # Figure 4a with a 1..12 sweep
//	mttkrp-bench -fig 7 -paper             # paper-sized (needs a big server)
//	mttkrp-bench -serve                    # serving load generator, conc 1/4/16
//	mttkrp-bench -serve -conc 4 -requests 256 -sdims 60x50x40 -rank 16
//	mttkrp-bench -serve -mix small:8,large:1   # heterogeneous mix: per-class p99 under cost-aware admission
//	mttkrp-bench -serve -sparse -density 0.01  # COO workload through the nnz-partitioned sparse path
//	mttkrp-bench -serve -fuse=off              # A/B half: batch-level KRP fusion disabled
//	mttkrp-bench -serve -simd=off              # A/B half: scalar reference kernels
//	mttkrp-bench -serve -numa=on               # A/B half: topology-aware placement on the served side
//	mttkrp-bench -kernels                      # per-kernel GFLOP/s table, scalar vs vectorized
//	mttkrp-bench -serve-http               # HTTP load against an in-process listener
//	mttkrp-bench -serve-http -addr http://host:8080 -requests 256
//	mttkrp-bench -serve-http -mix small:8,large:1  # mixed payloads over the wire
//	mttkrp-bench -serve-http -sparse -density 0.05 # COO payloads over the v2 sparse wire format
//	mttkrp-bench -serve-http -mmap                 # by-reference requests: server maps the tensor file, only factors cross the wire
//	mttkrp-bench -diff-base BENCH_a.json -diff-head BENCH_b.json  # delta table between two CI bench artifacts
//
// Each figure prints one table per subfigure with the same series the
// paper plots, followed by OBS lines summarizing the shape claims
// (speedups, ratios) recorded in EXPERIMENTS.md. The -serve mode drives
// identical concurrent MTTKRP load through the admission-controlled
// Server and through naive per-request pools, tabulating aggregate
// throughput and latency percentiles. The -serve-http mode ships full
// binary tensor payloads through the network transport (an in-process
// loopback listener unless -addr targets a live one) and splits served
// time into wire decode vs kernel compute.
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
	"repro/internal/simd"
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
	serveMode := fs.Bool("serve", false, "run the serving load generator instead of figure regeneration")
	serveHTTP := fs.Bool("serve-http", false, "run the HTTP transport load generator instead of figure regeneration")
	addr := fs.String("addr", "", "serve-http: base URL of a live listener (empty = in-process loopback)")
	conc := fs.Int("conc", 0, "serving: fixed concurrency level (0 = sweep 1, 4, 16)")
	requests := fs.Int("requests", 64, "serving: requests per concurrency level")
	sdims := fs.String("sdims", "48x40x36", "serving: tensor dims, e.g. 60x50x40")
	rank := fs.Int("rank", 16, "serving: CP rank / factor columns")
	mixSpec := fs.String("mix", "", "serving: heterogeneous workload mix, e.g. small:8,large:1 (classes small, medium, large scaled from -sdims/-rank; reports per-class p99)")
	sparse := fs.Bool("sparse", false, "serving: generate COO tensors instead of dense ones (nnz-partitioned kernel, nnz-priced admission; -serve-http ships the v2 sparse wire format)")
	mmap := fs.Bool("mmap", false, "serve-http: ship by-reference requests (wire v3, /v1/mttkrp-ref) against an in-process listener with a tensor root — the tensor file is mapped server-side and only factors cross the wire (A/B against full payloads via the decode-share column)")
	density := fs.Float64("density", 0.01, "serving: fill fraction of the sparse tensors (with -sparse)")
	fuse := fs.String("fuse", "on", "serving: batch-level KRP fusion on the served side, on or off (run both for the A/B; tables carry a fuse-hit column)")
	simdAB := fs.String("simd", "on", "vectorized kernels, on or off (off forces the scalar reference; applies to -serve, -serve-http and -kernels)")
	numaAB := fs.String("numa", "off", "serving: topology-aware placement on the served side, on or off (on builds the server pool over the detected host topology — MTTKRP_TOPOLOGY overrides detection; run both for the A/B, results are bit-identical)")
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
		if *serveMode || *serveHTTP || *kernelsMode {
			return cli.UsageError{Msg: "-diff-base/-diff-head is a standalone mode; drop the other mode flags"}
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
	if *serveMode && *serveHTTP {
		return cli.UsageError{Msg: "-serve and -serve-http are mutually exclusive"}
	}
	if *mixSpec != "" && !*serveMode && !*serveHTTP {
		return cli.UsageError{Msg: "-mix applies to the serving load generators; pass -serve or -serve-http"}
	}
	if *fuse != "on" && *fuse != "off" {
		return cli.UsageError{Msg: fmt.Sprintf("-fuse: unknown value %q (want on or off)", *fuse)}
	}
	fuseSet := false
	fs.Visit(func(f *flag.Flag) { fuseSet = fuseSet || f.Name == "fuse" })
	if fuseSet && !*serveMode && !*serveHTTP {
		return cli.UsageError{Msg: "-fuse applies to the serving load generators; pass -serve or -serve-http"}
	}
	noFusion := *fuse == "off"
	if *simdAB != "on" && *simdAB != "off" {
		return cli.UsageError{Msg: fmt.Sprintf("-simd: unknown value %q (want on or off)", *simdAB)}
	}
	simdSet := false
	fs.Visit(func(f *flag.Flag) { simdSet = simdSet || f.Name == "simd" })
	if simdSet && !*serveMode && !*serveHTTP && !*kernelsMode {
		return cli.UsageError{Msg: "-simd applies to the serving load generators and -kernels; pass -serve, -serve-http or -kernels"}
	}
	noSIMD := *simdAB == "off"
	if *numaAB != "on" && *numaAB != "off" {
		return cli.UsageError{Msg: fmt.Sprintf("-numa: unknown value %q (want on or off)", *numaAB)}
	}
	numaSet := false
	fs.Visit(func(f *flag.Flag) { numaSet = numaSet || f.Name == "numa" })
	if numaSet && !*serveMode && !*serveHTTP {
		return cli.UsageError{Msg: "-numa applies to the serving load generators; pass -serve or -serve-http"}
	}
	numaOn := *numaAB == "on"
	if *sparse && !*serveMode && !*serveHTTP {
		return cli.UsageError{Msg: "-sparse applies to the serving load generators; pass -serve or -serve-http"}
	}
	densitySet := false
	fs.Visit(func(f *flag.Flag) { densitySet = densitySet || f.Name == "density" })
	if densitySet && !*sparse {
		return cli.UsageError{Msg: "-density applies to the sparse workload; pass -sparse"}
	}
	if *sparse && (*density <= 0 || *density > 1) {
		return cli.UsageError{Msg: fmt.Sprintf("-density: %g out of range (0, 1]", *density)}
	}
	if *mmap && !*serveHTTP {
		return cli.UsageError{Msg: "-mmap applies to the HTTP load generator; pass -serve-http"}
	}
	if *mmap && *sparse {
		return cli.UsageError{Msg: "-mmap ships dense by-reference requests; drop -sparse"}
	}
	if *kernelsMode {
		if *serveMode || *serveHTTP {
			return cli.UsageError{Msg: "-kernels and the serving load generators are mutually exclusive"}
		}
		if noSIMD {
			prev := simd.Active()
			simd.Use(simd.Scalar())
			defer simd.Use(prev)
		}
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
	if *serveMode || *serveHTTP {
		dims, err := cli.ParseDims(*sdims)
		if err != nil {
			return cli.UsageError{Msg: fmt.Sprintf("-sdims: %v", err)}
		}
		var levels []int
		if *conc > 0 {
			levels = []int{*conc}
		}
		if *serveHTTP {
			fmt.Fprintf(stdout, "# MTTKRP HTTP serving load — dims %v, rank %d, %d requests/level, GOMAXPROCS=%d\n\n",
				dims, *rank, *requests, procs)
			start := time.Now()
			t, err := bench.HTTPLoad(bench.HTTPLoadConfig{
				URL:      *addr,
				Dims:     dims,
				Rank:     *rank,
				Conc:     levels,
				Requests: *requests,
				Mix:      *mixSpec,
				Sparse:   *sparse,
				Density:  *density,
				Mmap:     *mmap,
				NoFusion: noFusion,
				NoSIMD:   noSIMD,
				NUMA:     numaOn,
				Out:      func(format string, a ...any) { fmt.Fprintf(stdout, format, a...) },
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
		fmt.Fprintf(stdout, "# MTTKRP serving load — dims %v, rank %d, %d requests/level, GOMAXPROCS=%d\n\n",
			dims, *rank, *requests, procs)
		start := time.Now()
		t, err := bench.ServeLoad(bench.ServeLoadConfig{
			Dims:     dims,
			Rank:     *rank,
			Conc:     levels,
			Requests: *requests,
			Mix:      *mixSpec,
			Sparse:   *sparse,
			Density:  *density,
			NoFusion: noFusion,
			NoSIMD:   noSIMD,
			NUMA:     numaOn,
			Out:      func(format string, a ...any) { fmt.Fprintf(stdout, format, a...) },
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
