package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// TestMetricTablesMatchBenchmarkJSON pins the ledger's metric tables to
// BENCHMARK.json: same names, same units, same order, and legal names.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []decl                  `json:"end_to_end"`
		PerLayer  []decl                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, c := range []struct {
		kind string
		got  []decl
		want []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the ledger %d", c.kind, len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), ledger %s (%s)", c.kind, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
			if !legal.MatchString(m.name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
			}
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the ledger %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || !legal.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json %q, ledger %q", i, bf.Workloads[i].Name, w.name)
		}
	}
}

// runLedger runs the command in-process and returns its exit code, its
// standard output and its parsed result line (nil if it printed none).
func runLedger(t *testing.T, args ...string) (int, string, *jsonResult) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append(args, "-workdir", t.TempDir()), &out, &errb)
	if errb.Len() > 0 {
		t.Logf("stderr: %s", errb.String())
	}
	jr, _ := lastResult(out.Bytes())
	return code, out.String(), jr
}

// TestSmokeAllWorkloads runs every workload at tiny shapes, untraced and
// traced, and checks that exactly the declared metrics are printed, each
// with its unit and a finite value.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, out, jr := runLedger(t, "-workload", w.name, "-tiny", "-seconds", "0.4", "-trace", trace)
			if code != 0 || jr == nil {
				t.Fatalf("%s trace=%s: exit %d, result %v", w.name, trace, code, jr)
			}
			want := declared(trace == "1")
			if len(jr.Metrics) != len(want) || !jr.Correct || jr.Attempted < 1 || jr.Failed != 0 {
				t.Errorf("%s trace=%s: %d metrics (want %d), correct=%v attempted=%d failed=%d",
					w.name, trace, len(jr.Metrics), len(want), jr.Correct, jr.Attempted, jr.Failed)
			}
			for _, d := range want {
				m, ok := jr.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%s: metric %s = %+v", w.name, trace, d.name, m)
					continue
				}
				line := w.name + " " + d.name + " " + strconv.FormatFloat(m.Value, 'g', -1, 64) + " " + d.unit + "\n"
				if !strings.Contains(out, line) {
					t.Errorf("%s trace=%s: missing line %q", w.name, trace, line)
				}
			}
		}
	}
}

// TestCorruptedResultFails checks that a wrong result makes the run fail.
func TestCorruptedResultFails(t *testing.T) {
	resultHook = func(m mat.View) { m.Data[0] += 1 }
	defer func() { resultHook = nil }()
	for _, w := range []string{"mttkrp-order6", "http-payload"} {
		code, _, jr := runLedger(t, "-workload", w, "-tiny", "-seconds", "0.2")
		if code == 0 || jr == nil || jr.Correct || jr.Failed == 0 {
			t.Errorf("%s with corrupted results: exit %d, result %+v", w, code, jr)
		}
	}
}

// TestStallCountsInDueTimeLatency checks the open loop's timing rules: a
// sender that stalls delays the requests queued behind it, and their
// due-time latency includes the wait, while the dispatcher stays on time.
func TestStallCountsInDueTimeLatency(t *testing.T) {
	arr := make([]arrival, 100)
	for i := range arr {
		arr[i].due = time.Duration(i) * time.Millisecond
	}
	const stall = 50 * time.Millisecond
	openLoop(time.Now(), arr, 1, func(_ int, a *arrival) error {
		if a == &arr[10] {
			time.Sleep(stall)
		}
		return nil
	})
	late := make([]float64, len(arr))
	for i := range arr {
		late[i] = ms(arr[i].late)
	}
	if p99 := quantile(sortedCopy(late), 0.99); p99 >= ms(stall)/2 {
		t.Errorf("dispatcher lateness p99 %.3f ms includes the sender stall", p99)
	}
	for _, i := range []int{11, 20, 30} {
		// Request i was due (i−10) ms after the stalled one started.
		if lat := arr[i].latency(); lat < stall-time.Duration(i-10)*time.Millisecond {
			t.Errorf("request %d: due-time latency %v does not include the stall", i, lat)
		}
	}
}

// TestQuantileMatchesBench pins the ledger's nearest-rank quantile to the
// repository's bench.Quantile on the tables that separate the common
// definitions, and the quartiles to Python's statistics.quantiles.
func TestQuantileMatchesBench(t *testing.T) {
	for _, n := range []int{1, 2, 4, 100} {
		fs := make([]float64, n)
		ds := make([]time.Duration, n)
		for i := range fs {
			fs[i] = float64(i + 1)
			ds[i] = time.Duration(i + 1)
		}
		for _, p := range []float64{0, 0.5, 0.75, 0.95, 0.99, 1, 1.5} {
			if got, want := quantile(fs, p), float64(bench.Quantile(ds, p)); got != want {
				t.Errorf("N=%d p=%g: ledger %g, bench %g", n, p, got, want)
			}
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestInputFingerprints pins the seed-1 inputs of every workload, so that a
// change to a generator, which would make ledger runs incomparable, fails.
func TestInputFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every full-size input")
	}
	pool := parallel.NewPool(0)
	defer pool.Close()
	got := map[string]uint64{"cp-fmri": fingerprint(fmriInput(pool, 1, false).Data())}
	x, u := order6Input(1, false)
	got["mttkrp-order6"] = order6Fingerprint(x, u)
	for _, w := range []struct {
		name  string
		build func(*parallel.Pool, *rand.Rand, string, bool) ([]*reqClass, error)
	}{{"http-payload", buildPayload}, {"http-byref", buildByRef}} {
		classes, err := w.build(pool, rand.New(rand.NewSource(1)), t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range classes {
			got[w.name+"/"+c.name] = c.fp
		}
	}
	want := map[string]uint64{
		"cp-fmri":             0x17b03fbf15e5a1ee,
		"mttkrp-order6":       0x0f56cf38f1bcedb4,
		"http-payload/small":  0xfe5f1fa317babd03,
		"http-payload/large":  0x6473a7242ff5dfe2,
		"http-payload/sparse": 0xa5099734095f2d60,
		"http-byref/f00.dsnt": 0x00b116ee9756c593,
		"http-byref/f19.dsnt": 0x60e06c709cb7e1fe,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: fingerprint %016x, pinned %016x", name, got[name], w)
		}
	}
}
