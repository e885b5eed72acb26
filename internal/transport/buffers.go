package transport

import "sync"

// floatPool recycles float64 payload buffers across requests, so the
// steady-state decode path reuses one warm slab per in-flight request
// instead of allocating a tensor-sized buffer per call. Buffers whose
// capacity falls short of a request are dropped and replaced — the pool
// converges on the working set's largest shapes.
type floatPool struct {
	pool sync.Pool // of *[]float64
}

func (p *floatPool) get(n int) []float64 {
	if v := p.pool.Get(); v != nil {
		b := *(v.(*[]float64))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float64, n)
}

func (p *floatPool) put(b []float64) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	p.pool.Put(&b)
}

// int32Pool recycles the sparse coordinate slabs, mirroring floatPool:
// one warm index buffer per in-flight sparse request.
type int32Pool struct {
	pool sync.Pool // of *[]int32
}

func (p *int32Pool) get(n int) []int32 {
	if v := p.pool.Get(); v != nil {
		b := *(v.(*[]int32))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]int32, n)
}

func (p *int32Pool) put(b []int32) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	p.pool.Put(&b)
}
