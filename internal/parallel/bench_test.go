package parallel

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkDispatch measures the fixed cost of one parallel region on the
// persistent pool across region widths and per-worker grain sizes. This is
// the overhead class the pool runtime exists to keep small: CP-ALS issues
// thousands of such regions per sweep.
func BenchmarkDispatch(b *testing.B) {
	for _, tw := range []int{2, 4, 8} {
		for _, grain := range []int{0, 1 << 10, 1 << 16} {
			work := func(lo, hi int) float64 {
				s := 0.0
				for i := 0; i < grain; i++ {
					s += float64(i ^ lo ^ hi)
				}
				return s
			}
			var sink atomic.Int64
			body := func(_, lo, hi int) { sink.Add(int64(work(lo, hi))) }
			name := fmt.Sprintf("T=%d/grain=%d", tw, grain)
			b.Run(name+"/pooled", func(b *testing.B) {
				p := NewPool(tw)
				defer p.Close()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.For(tw, tw, body)
				}
			})
		}
	}
}

// BenchmarkReduceSum measures the parallel reduction on a persistent pool.
func BenchmarkReduceSum(b *testing.B) {
	const n = 1 << 18
	parts := make([][]float64, 8)
	for w := range parts {
		parts[w] = make([]float64, n)
	}
	b.Run("pooled", func(b *testing.B) {
		p := NewPool(8)
		defer p.Close()
		b.ReportAllocs()
		b.SetBytes(8 * n * int64(len(parts)))
		for i := 0; i < b.N; i++ {
			p.ReduceSum(8, parts)
		}
	})
}
