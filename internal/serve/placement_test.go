package serve

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestPlacementBitIdentical is the -numa=on vs off property test:
// identical request streams against a placed and a flat server — same
// team width, same cost model — must produce math.Float64bits-identical
// MTTKRP and CP results across methods × modes × widths, including
// widths where the placed lease spills past one domain.
func TestPlacementBitIdentical(t *testing.T) {
	topo, err := parallel.ParseTopology("0-1;2-3")
	if err != nil {
		t.Fatal(err)
	}
	x1, u1 := problem(11, 6, 12, 10, 8)
	x2, u2 := problem(12, 5, 7, 9, 6, 5)

	for _, workers := range []int{2, 4, 5} {
		// MaxActive 1: a ticket resolves before its batch returns the lease,
		// so a wider admission cap could admit the next request beside the
		// finishing one at a partial budget.
		flat := New(Config{Workers: workers, MaxActive: 1})
		placed := New(Config{Workers: workers, MaxActive: 1, Topology: topo})

		type cs struct {
			x      *tensor.Dense
			u      []mat.View
			mode   int
			method core.Method
		}
		var cases []cs
		for mode := 0; mode < 3; mode++ {
			cases = append(cases, cs{x1, u1, mode, core.MethodOneStep})
		}
		for mode := 0; mode < 4; mode++ {
			cases = append(cases, cs{x2, u2, mode, core.MethodTwoStep})
		}
		// One request in flight at a time, so both servers grant the same
		// full-width budget; the A/B then isolates placement.
		for i, c := range cases {
			label := fmt.Sprintf("workers %d case %d (mode %d method %v)", workers, i, c.mode, c.method)
			req := MTTKRPRequest{X: c.x, Factors: c.u, Mode: c.mode, Method: c.method}
			want, err := flat.SubmitMTTKRP(req).MTTKRP()
			if err != nil {
				t.Fatalf("%s: flat: %v", label, err)
			}
			got, err := placed.SubmitMTTKRP(req).MTTKRP()
			if err != nil {
				t.Fatalf("%s: placed: %v", label, err)
			}
			bitsEqual(t, got, want, label)
		}

		cpCfg := cpd.Config{Rank: 3, MaxIters: 4, Tol: -1, Seed: 7}
		want, err := flat.SubmitCP(CPRequest{X: x1, Config: cpCfg}).CP()
		if err != nil {
			t.Fatal(err)
		}
		got, err := placed.SubmitCP(CPRequest{X: x1, Config: cpCfg}).CP()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Fit) != math.Float64bits(want.Fit) {
			t.Fatalf("workers %d: CP fit bits differ: %g vs %g", workers, got.Fit, want.Fit)
		}
		for m := range want.K.Factors {
			bitsEqual(t, got.K.Factors[m], want.K.Factors[m], fmt.Sprintf("workers %d CP factor %d", workers, m))
		}

		placed.Close()
		flat.Close()
	}
}

// BenchmarkPlacementAB is the -numa A/B in the bench artifact: the same
// serving workload on a flat and on a placed (2-domain) scheduler. On a
// genuinely multi-socket host the placed leg holds its bytes on one node;
// on anything else it measures the placement bookkeeping overhead, which
// must stay in the noise.
func BenchmarkPlacementAB(b *testing.B) {
	topo, err := parallel.ParseTopology("0-1;2-3")
	if err != nil {
		b.Fatal(err)
	}
	x, u := problem(42, 16, 48, 40, 36)
	for _, leg := range []struct {
		name string
		topo *parallel.Topology
	}{{"numa=off", nil}, {"numa=on", topo}} {
		b.Run(leg.name, func(b *testing.B) {
			s := New(Config{Workers: 4, Topology: leg.topo})
			defer s.Close()
			dst := mat.NewDense(x.Dim(1), 16)
			if err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 1, Dst: dst}).Err(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 1, Dst: dst}).Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
