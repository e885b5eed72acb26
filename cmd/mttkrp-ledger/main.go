// Command mttkrp-ledger is the repository's benchmark: four workloads that
// together exercise every layer of the library and the daemon, each
// reporting end-to-end metrics (untraced run) or per-layer metrics (traced
// run). See README.md for the workloads, metrics and run modes.
//
//	mttkrp-ledger -seed 1                  # every workload, each in a child process
//	mttkrp-ledger -workload cp-fmri -seed 1 -seconds 20 -trace 0
//	mttkrp-ledger -workload http-payload -trace 1 -spans out/
//	mttkrp-ledger -repeat 10               # two sets of 10 runs per workload
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// config is one workload run's settings.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test shapes (tests and quick checks)
	workDir  string // parent of the run's temporary files
	spansDir string // where a traced run writes its spans ("" = nowhere)
}

// tempDir makes a fresh directory for one run's temporary files under
// the configured work directory; the caller removes it.
func (c *config) tempDir(workload string) (string, error) {
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return "", fmt.Errorf("work dir: %w", err)
	}
	dir, err := os.MkdirTemp(c.workDir, workload+"-")
	if err != nil {
		return "", fmt.Errorf("work dir: %w", err)
	}
	return dir, nil
}

// workload is one of the benchmark's workloads; BENCHMARK.json and
// README.md say why each exists.
type workload struct {
	name string
	run  func(cfg *config, out io.Writer) (*result, error)
}

var workloads = []workload{
	{"cp-fmri", runCPFMRI},
	{"mttkrp-order6", runOrder6},
	{"http-payload", runHTTPPayload},
	{"http-byref", runHTTPByRef},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made explicit for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mttkrp-ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "traced run: write DIR/spans-<workload>.json")
	jsonOut := fs.String("json", "", "also write go-test-json BenchmarkLedger/<workload> lines to FILE")
	repeat := fs.Int("repeat", 0, "run two sets of N runs per workload and report medians, quartiles and spreads")
	tiny := fs.Bool("tiny", false, "smoke-test shapes")
	workDir := fs.String("workdir", ".bench_build/tmp", "directory for temporary tensor files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "mttkrp-ledger: bad arguments (see -h)")
		return 2
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny, workDir: *workDir, spansDir: *spans}
	if *repeat > 0 {
		return repeatRuns(cfg, *name, *repeat, stdout, stderr)
	}
	names := []string{*name}
	if *name == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	var results []namedResult
	code := 0
	for _, n := range names {
		w, ok := findWorkload(n)
		if !ok {
			fmt.Fprintf(stderr, "mttkrp-ledger: unknown workload %q\n", n)
			return 2
		}
		var (
			jr  *jsonResult
			err error
		)
		if *name != "" {
			jr, err = runHere(w, cfg, stdout, stderr)
		} else {
			jr, err = runChild(w.name, cfg, stderr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "mttkrp-ledger: %s: %v\n", n, err)
			return 1
		}
		if !jr.Correct {
			code = 1
		}
		results = append(results, namedResult{n, jr})
		if *name == "" {
			printLines(stdout, n, jr, cfg.trace)
		}
	}
	if *jsonOut != "" {
		if err := writeGoTestJSON(*jsonOut, results, cfg.trace); err != nil {
			fmt.Fprintf(stderr, "mttkrp-ledger: %v\n", err)
			return 1
		}
	}
	if *name != "" {
		b, _ := json.Marshal(results[0].res) // plain structs and finite floats: cannot fail
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return code
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the last line a single-workload run prints.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type namedResult struct {
	workload string
	res      *jsonResult
}

// runHere runs one workload in this process and prints its metric lines.
func runHere(w workload, cfg *config, stdout, stderr io.Writer) (*jsonResult, error) {
	fmt.Fprintf(stdout, "# host %s\n", hostFingerprint())
	r, err := w.run(cfg, stdout)
	if err != nil {
		return nil, err
	}
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "mttkrp-ledger: %s: CHECK FAILED: %s\n", w.name, p)
	}
	jr := &jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range declared(cfg.trace) {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		jr.Metrics[d.name] = jsonMetric{v, d.unit}
	}
	if len(r.values) != len(jr.Metrics) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(r.values), len(jr.Metrics))
	}
	if jr.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	printLines(stdout, w.name, jr, cfg.trace)
	return jr, nil
}

// printLines prints "<workload> <metric> <value> <unit>" in table order.
func printLines(w io.Writer, name string, jr *jsonResult, trace bool) {
	for _, d := range declared(trace) {
		m := jr.Metrics[d.name]
		fmt.Fprintf(w, "%s %s %s %s\n", name, d.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "%s attempted=%d failed=%d correct=%v\n", name, jr.Attempted, jr.Failed, jr.Correct)
}

// runChild runs one workload in a fresh child process, so that its set-up
// time and peak memory are its own, and returns the child's result line.
func runChild(name string, cfg *config, stderr io.Writer) (*jsonResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-workdir", cfg.workDir}
	if cfg.trace {
		args = append(args, "-trace", "1", "-spans", cfg.spansDir)
	}
	if cfg.tiny {
		args = append(args, "-tiny")
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	jr, perr := lastResult(out.Bytes())
	if perr != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, perr
	}
	return jr, nil
}

// lastResult parses the JSON object on the last line of a run's output.
func lastResult(out []byte) (*jsonResult, error) {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	var jr jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &jr); err != nil || jr.Metrics == nil {
		return nil, errors.New("run printed no result line")
	}
	return &jr, nil
}

// writeGoTestJSON writes one go-test-json output event per workload in the
// benchmark-line form internal/bench.ParseBenchJSON reads, so that
// mttkrp-bench -diff-base/-diff-head compares two ledger runs unchanged.
func writeGoTestJSON(path string, results []namedResult, trace bool) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("json file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type event struct {
		Action  string `json:"Action"`
		Package string `json:"Package"`
		Output  string `json:"Output"`
	}
	const pkg = "repro/cmd/mttkrp-ledger"
	enc.Encode(event{"output", pkg, "# host " + hostFingerprint() + "\n"})
	for _, r := range results {
		var b strings.Builder
		fmt.Fprintf(&b, "BenchmarkLedger/%s \t1", r.workload)
		for _, d := range declared(trace) {
			fmt.Fprintf(&b, "\t%s %s", strconv.FormatFloat(r.res.Metrics[d.name].Value, 'g', -1, 64), d.name)
		}
		b.WriteString("\n")
		enc.Encode(event{"output", pkg, b.String()})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("json file: %w", err)
	}
	return f.Close()
}
