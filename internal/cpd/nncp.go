package cpd

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// NNALS computes a nonnegative CP decomposition by hierarchical
// alternating least squares (HALS): per sweep and per mode it computes
// one MTTKRP with the same kernels and the same sweep loop as plain ALS
// (the dimension-tree sweep by default, a named Method per mode), then
// updates each factor column in closed form
// with a projection onto the nonnegative orthant,
//
//	U(:, c) ← max(ε, U(:, c) + (M(:, c) − U·H(:, c)) / H(c, c)),
//
// where M is the MTTKRP and H the Hadamard product of the other Grams.
// This covers the nonnegative setting of Liavas et al. (the paper's
// related work [16]) on shared memory: the cost profile is identical to
// CP-ALS because MTTKRP still dominates.
//
// The returned KTensor has nonnegative factors; weights stay 1 (scale is
// kept in the factors so nonnegativity constraints stay meaningful).
func NNALS(x *tensor.Dense, cfg Config) (*Result, error) {
	for _, v := range x.Data() {
		if v < 0 {
			return nil, fmt.Errorf("cpd: NNALS requires a nonnegative tensor")
		}
	}
	if cfg.Init != nil {
		init := cfg.Init.Clone()
		for _, u := range init.Factors {
			projectNonnegative(u)
		}
		cfg.Init = init
	}
	// A random initial guess is uniform [0,1): already nonnegative.
	return run(x, cfg, hals)
}

// hals is NNALS's factor update: two HALS column sweeps over U =
// k.Factors[mode], in place. A few inner passes help convergence without
// extra MTTKRPs.
func hals(k *KTensor, mode int, m, h mat.View, _ bool) {
	const eps = 1e-16
	u := k.Factors[mode]
	c := u.C
	for pass := 0; pass < 2; pass++ {
		for col := 0; col < c; col++ {
			hcc := h.At(col, col)
			if hcc < eps {
				hcc = eps
			}
			// delta = (M(:,col) − U·H(:,col)) / hcc, then clamp.
			for i := 0; i < u.R; i++ {
				s := m.At(i, col)
				for p := 0; p < c; p++ {
					s -= u.At(i, p) * h.At(p, col)
				}
				v := u.At(i, col) + s/hcc
				if v < eps {
					v = eps
				}
				u.Set(i, col, v)
			}
		}
	}
}

func projectNonnegative(u mat.View) {
	for i := 0; i < u.R; i++ {
		for j := 0; j < u.C; j++ {
			if u.At(i, j) < 0 {
				u.Set(i, j, 0)
			}
		}
	}
}
