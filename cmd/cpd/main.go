// Command cpd runs a CP-ALS decomposition on a synthetic tensor — either a
// random dense tensor of given dimensions or the synthetic fMRI dataset —
// and reports fit, per-iteration time, and component weights.
//
// By default every sweep is one dimension-tree sweep (two passes over the
// tensor instead of one per mode); -method names a per-mode MTTKRP
// kernel instead, and 2step is the paper's hybrid. Both print the same
// fit to rounding.
//
// Usage:
//
//	cpd -dims 60,50,40 -rank 8
//	cpd -fmri -fmri-scale 0.3 -rank 10 -threads 4
//	cpd -fmri -linearize -rank 10          # 3-way pairs form
//	cpd -dims 40,40,40 -method 2step       # the paper's per-mode hybrid
//	cpd -dims 40,40,40 -method reorder     # force the baseline MTTKRP
//	cpd -fmri -nonneg -nvecs -corcondia    # nonnegative fit + diagnostics
//	cpd -fmri -save x.dsnt; cpd -load x.dsnt # persist / reload tensors
//
// -save writes a DSNT file, the one dense tensor file format, so the
// saved tensor can also be served by reference (mttkrp-serve -tensor-root,
// Client.MTTKRPByRef); -load reads any DSNT file, including one written
// by WriteDenseFile.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/cpd"
	"repro/internal/fmri"
	"repro/internal/tensor"
)

func main() {
	cli.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with explicit arguments and output streams so
// tests can drive it end to end.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dimsFlag := fs.String("dims", "", "comma-separated tensor dimensions, e.g. 60,50,40")
	useFMRI := fs.Bool("fmri", false, "use the synthetic fMRI dataset instead of a random tensor")
	fmriScale := fs.Float64("fmri-scale", 0.25, "linear scale of the fMRI dimensions vs the paper's 225x59x200x200")
	linearize := fs.Bool("linearize", false, "with -fmri: decompose the symmetry-reduced 3-way tensor")
	rank := fs.Int("rank", 10, "CP rank (number of components)")
	iters := fs.Int("maxiters", 50, "maximum ALS sweeps")
	tol := fs.Float64("tol", 1e-4, "fit-change stopping tolerance (negative: always run maxiters)")
	threads := fs.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "random seed for data and initial guess")
	methodName := fs.String("method", "auto", "MTTKRP method: auto (dimension-tree sweep), or per mode 1step, 2step, reorder")
	noise := fs.Float64("noise", 0.1, "with -fmri: relative noise level")
	nonneg := fs.Bool("nonneg", false, "nonnegative CP via HALS (requires a nonnegative tensor)")
	nvecs := fs.Bool("nvecs", false, "initialize from leading eigenvectors instead of a random draw")
	corcondia := fs.Bool("corcondia", false, "report the core consistency diagnostic of the fit")
	loadPath := fs.String("load", "", "load the tensor from a DSNT file (as -save writes) instead of generating one")
	savePath := fs.String("save", "", "save the generated tensor to this file before decomposing")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.UsageError{} // the FlagSet already printed message and usage
	}

	method, err := cli.ParseMethod(*methodName)
	if err != nil {
		return cli.UsageError{Msg: err.Error()}
	}

	var x *tensor.Dense
	switch {
	case *loadPath != "":
		if x, err = tensor.Load(*loadPath); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	case *useFMRI:
		p := fmri.PaperParams().Scaled(*fmriScale)
		p.Noise = *noise
		p.Seed = *seed
		fmt.Fprintf(stdout, "generating fMRI dataset %dx%dx%dx%d (%d planted networks, noise %.2g)...\n",
			p.Times, p.Subjects, p.Regions, p.Regions, p.Components, p.Noise)
		ds := fmri.GenerateOn(nil, p)
		if *linearize {
			x = ds.Linearize3()
		} else {
			x = ds.Tensor4
		}
	case *dimsFlag != "":
		dims, err := cli.ParseDims(*dimsFlag)
		if err != nil {
			return cli.UsageError{Msg: err.Error()}
		}
		x = tensor.Random(rand.New(rand.NewSource(*seed)), dims...)
	default:
		return cli.UsageError{Msg: "need -dims or -fmri; see -h"}
	}

	if *savePath != "" {
		if err := x.Save(*savePath); err != nil {
			return fmt.Errorf("save: %w", err)
		}
		fmt.Fprintf(stdout, "saved tensor to %s\n", *savePath)
	}

	fmt.Fprintf(stdout, "tensor %v (%d entries, %.1f MB), rank %d, method %v\n",
		x.Dims(), x.Size(), float64(x.Size())*8/1e6, *rank, method)

	cfg := cpd.Config{
		Rank:     *rank,
		MaxIters: *iters,
		Tol:      *tol,
		Threads:  *threads,
		Method:   method,
		Seed:     *seed,
	}
	if *nvecs {
		cfg.Init = cpd.NVecsInit(*threads, x, *rank, *seed)
		fmt.Fprintln(stdout, "using nvecs (leading-eigenvector) initialization")
	}
	start := time.Now()
	var res *cpd.Result
	if *nonneg {
		res, err = cpd.NNALS(x, cfg)
	} else {
		res, err = cpd.ALS(x, cfg)
	}
	if err != nil {
		return fmt.Errorf("cp-als: %w", err)
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "converged: fit %.6f after %d sweeps in %v (%.3fs/sweep)\n",
		res.Fit, res.Iters, elapsed.Round(time.Millisecond), res.MeanIterTime().Seconds())
	res.K.Arrange()
	fmt.Fprintln(stdout, "component weights (descending):")
	for i, l := range res.K.Lambda {
		fmt.Fprintf(stdout, "  λ[%d] = %.4g\n", i, l)
	}
	if len(res.FitHistory) > 1 {
		fmt.Fprintf(stdout, "fit history: first %.4f, last %.4f\n", res.FitHistory[0], res.Fit)
	}
	if *corcondia {
		cc := cpd.Corcondia(*threads, x, res.K)
		fmt.Fprintf(stdout, "core consistency (CORCONDIA): %.1f\n", cc)
	}
	return nil
}
