package bench

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
	"time"
)

func tinyConfig(buf *bytes.Buffer) Config {
	return Config{Scale: 2e-6, MaxThreads: 2, Trials: 1, Out: buf}
}

func TestSummarize(t *testing.T) {
	ds := []time.Duration{3 * time.Second, time.Second, 2 * time.Second}
	st := Summarize(ds)
	if st.Median != 2*time.Second || st.Min != time.Second || st.Max != 3*time.Second || st.N != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.Mean != 2*time.Second {
		t.Errorf("mean = %v", st.Mean)
	}
	// Even N: nearest-rank p50 is the lower middle element (the shared
	// Quantile definition), not the historical two-element average.
	even := Summarize([]time.Duration{time.Second, 3 * time.Second})
	if even.Median != time.Second {
		t.Errorf("even median = %v, want the nearest-rank 1s", even.Median)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summarize")
	}
}

func TestMeasureRunsWarmupPlusTrials(t *testing.T) {
	count := 0
	st := Measure(3, func() { count++ })
	if count != 4 {
		t.Errorf("ran %d times, want 4 (warmup + 3)", count)
	}
	if st.N != 3 {
		t.Errorf("N = %d", st.N)
	}
	count = 0
	MeasureTimed(0, func() time.Duration { count++; return time.Millisecond })
	if count != 2 {
		t.Errorf("MeasureTimed(0) ran %d times, want 2", count)
	}
}

func TestThreadCounts(t *testing.T) {
	ts := ThreadCounts(4)
	if len(ts) != 4 || ts[0] != 1 || ts[3] != 4 {
		t.Errorf("ThreadCounts = %v", ts)
	}
	if got := ThreadCounts(0); len(got) != 1 {
		t.Errorf("ThreadCounts(0) = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tbl := NewTable("demo", "name", "a", "b")
	tbl.Add("row1", "1", "2")
	tbl.Addf("row2", "%.2f", 3.14159, 2.71828)
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"## demo", "row1", "3.14", "2.72", "name"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Scale != 0.01 || c.Trials != 3 || c.MaxThreads < 1 {
		t.Errorf("defaults = %+v", c)
	}
	if dims := equalDims(3, paperEntries); dims[0] < 890 || dims[0] > 920 {
		t.Errorf("paper-scale N=3 dims = %v, want ≈ 908 (900 in paper)", dims)
	}
	if dims := equalDims(6, 1); dims[0] != 2 {
		t.Errorf("tiny N=6 dims = %v, want the floor of 2", dims)
	}
	if rows := (Config{Scale: 1}.WithDefaults()).KRPRows(); rows != 2e7 {
		t.Errorf("paper-scale KRP rows = %d", rows)
	}
	if rows := (Config{Scale: 1e-12}.WithDefaults()).KRPRows(); rows < 64 {
		t.Error("KRP rows floor not applied")
	}
}

func TestFig4Tiny(t *testing.T) {
	var buf bytes.Buffer
	tbl := Fig4(tinyConfig(&buf), 25)
	// Series: {2,3,4} × {Naive, Reuse} + STREAM = 7 rows.
	if len(tbl.Rows) != 7 {
		t.Errorf("fig4 has %d series, want 7", len(tbl.Rows))
	}
	if !strings.Contains(buf.String(), "OBS fig4") {
		t.Error("missing observations")
	}
}

func TestFig5Tiny(t *testing.T) {
	var buf bytes.Buffer
	tables := Fig5(tinyConfig(&buf))
	if len(tables) != 4 {
		t.Fatalf("fig5 produced %d tables, want 4 (N=3..6)", len(tables))
	}
	// N=5: 5 one-step series + 3 two-step series + baseline = 9.
	if got := len(tables[2].Rows); got != 9 {
		t.Errorf("fig5 N=5 has %d series, want 9", got)
	}
	if !strings.Contains(buf.String(), "OBS fig5 N=3") {
		t.Error("missing observations")
	}
}

func TestFig6Tiny(t *testing.T) {
	var buf bytes.Buffer
	tables := Fig6(tinyConfig(&buf))
	if len(tables) != 8 {
		t.Fatalf("fig6 produced %d tables, want 8 (N=3..6 × seq/par)", len(tables))
	}
	// N=3 table: per mode {B, R, 1S} + internal 2S = 3*3+1 = 10 rows.
	if got := len(tables[0].Rows); got != 10 {
		t.Errorf("fig6 N=3 has %d rows, want 10", got)
	}
	out := buf.String()
	if !strings.Contains(out, "DGEMM") || !strings.Contains(out, "REDUCE") {
		t.Error("missing phase columns")
	}
	for i, tbl := range tables {
		order, r := 3+i/2, 0
		for _, row := range tbl.Rows {
			if strings.HasSuffix(row[0], " R") {
				r++
			}
		}
		if r != order {
			t.Errorf("%q has %d reorder rows, want one per mode (%d)", tbl.Title, r, order)
		}
	}
	checkBreakdownCells(t, tables)
}

// checkBreakdownCells pins that a breakdown table shows every phase that
// ran. A phase that did not run renders as the literal "0", so any other
// cell that reads as zero is a nonzero time rounded away. And the phases
// a method always runs must read above zero: DGEMM and the total on every
// row, on 2-step rows the partial KRP and the DGEMV derivation, whose
// sub-millisecond times a seconds column used to print as 0.0000, and on
// reorder-baseline rows the reorder and the full KRP.
func checkBreakdownCells(t *testing.T, tables []*Table) {
	t.Helper()
	for _, tbl := range tables {
		if !strings.Contains(tbl.Title, "milliseconds") {
			t.Errorf("%q: breakdowns print milliseconds", tbl.Title)
		}
		for _, row := range tbl.Rows {
			mustRun := map[string]bool{"DGEMM": true, "TOTAL": true}
			switch {
			case strings.HasSuffix(row[0], " 2S"):
				mustRun["DGEMV"], mustRun["L&R KRP"] = true, true
			case strings.HasSuffix(row[0], " R"):
				mustRun["REORDER"], mustRun["Full KRP"] = true, true
			}
			for i, cell := range row[1:] {
				col := tbl.Columns[i+1]
				v, err := strconv.ParseFloat(cell, 64)
				switch {
				case err != nil || v < 0:
					t.Errorf("%q row %q: %s cell %q is not a time", tbl.Title, row[0], col, cell)
				case v == 0 && cell != "0":
					t.Errorf("%q row %q: %s renders as %q, which reads as zero but is not the literal 0 of a phase that did not run", tbl.Title, row[0], col, cell)
				case v == 0 && mustRun[col]:
					t.Errorf("%q row %q: %s always runs but reads 0", tbl.Title, row[0], col)
				}
			}
		}
	}
}

// TestFormatMs pins the breakdown cell format: exactly zero reads "0",
// anything above it keeps three significant digits however small, and
// no time renders with an exponent.
func TestFormatMs(t *testing.T) {
	for d, want := range map[time.Duration]string{
		0:                          "0",
		20 * time.Nanosecond:       "0.0000200",
		30 * time.Microsecond:      "0.0300",
		150 * time.Microsecond:     "0.150",
		time.Millisecond:           "1.00",
		12345 * time.Microsecond:   "12.3",
		1234567 * time.Microsecond: "1235",
		90 * time.Second:           "90000",
	} {
		if got := formatMs(d); got != want {
			t.Errorf("formatMs(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestFig7Tiny(t *testing.T) {
	var buf bytes.Buffer
	tables := Fig7(tinyConfig(&buf))
	if len(tables) != 2 {
		t.Fatalf("fig7 produced %d tables, want 2 (3D, 4D)", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) != 4 {
			t.Errorf("fig7 table has %d series, want 4", len(tbl.Rows))
		}
		if len(tbl.Rows[0]) != len(fig7Ranks)+1 {
			t.Errorf("fig7 row has %d cells", len(tbl.Rows[0]))
		}
	}
	if !strings.Contains(buf.String(), "OBS fig7 4D") {
		t.Error("missing observations")
	}
}

func TestFig8Tiny(t *testing.T) {
	var buf bytes.Buffer
	tables := Fig8(tinyConfig(&buf))
	if len(tables) != 4 {
		t.Fatalf("fig8 produced %d tables, want 4 (3D/4D × seq/par)", len(tables))
	}
	// 3D: 3 modes × {B, 1S} + 1 internal 2S = 7 rows.
	if got := len(tables[0].Rows); got != 7 {
		t.Errorf("fig8 3D has %d rows, want 7", got)
	}
	// 4D: 4 modes × {B, 1S} + 2 internal 2S = 10 rows.
	if got := len(tables[2].Rows); got != 10 {
		t.Errorf("fig8 4D has %d rows, want 10", got)
	}
	checkBreakdownCells(t, tables)
}

func TestTableWriteCSV(t *testing.T) {
	tbl := NewTable("demo", "name", "T=1", "T=2")
	tbl.Add("series-a", "0.5", "0.25")
	tbl.Add("short") // padded
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "name,T=1,T=2\nseries-a,0.5,0.25\nshort,,\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
}

func TestTableCSVRoundTripsThroughReader(t *testing.T) {
	tbl := NewTable("x", "a", "b")
	tbl.Add("with,comma", "1")
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1][0] != "with,comma" {
		t.Errorf("records = %v", recs)
	}
}
