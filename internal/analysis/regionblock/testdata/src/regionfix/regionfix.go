// Fixture for the regionblock analyzer: blocking operations inside
// parallel region bodies, next to the non-blocking shapes it must accept.
package regionfix

import (
	"sync"

	"repro/internal/parallel"
)

func badSend(p *parallel.Pool, ch chan int, n int) {
	p.For(4, n, func(w, lo, hi int) {
		ch <- lo // want `channel send inside a parallel region body`
	})
}

func badRecv(p *parallel.Pool, ch chan int) {
	p.Run(2, func(w int) {
		<-ch // want `channel receive inside a parallel region body`
	})
}

func badSelect(p *parallel.Pool, ch chan int) {
	p.Run(2, func(w int) {
		select { // want `blocking select inside a parallel region body`
		case <-ch:
		}
	})
}

func badRangeChan(p *parallel.Pool, ch chan int) {
	p.Run(2, func(w int) {
		for range ch { // want `ranging over a channel inside a parallel region body`
		}
	})
}

func badWait(p *parallel.Pool, wg *sync.WaitGroup, n int) {
	p.For(2, n, func(w, lo, hi int) {
		wg.Wait() // want `sync wait inside a parallel region body`
	})
}

func badNested(p *parallel.Pool, n int) {
	p.Run(2, func(w int) {
		p.For(2, n, func(w2, lo, hi int) { // want `nested dispatch inside a region body`
			_ = lo
		})
	})
}

func badReconcile(l *parallel.Lease, n int) {
	l.For(2, n, func(w, lo, hi int) {
		l.Reconcile() // want `Reconcile blocks for the region barrier`
	})
}

func badLease(p *parallel.Pool, n int) {
	p.For(2, n, func(w, lo, hi int) {
		l := p.Lease(1) // want `Lease inside a region body blocks on the region mutex`
		l.Close()       // want `Close inside a region body blocks on the region mutex`
	})
}

func okSelectDefault(p *parallel.Pool, ch chan int) {
	p.Run(2, func(w int) {
		select {
		case <-ch:
		default:
		}
	})
}

func okGoroutine(p *parallel.Pool, ch chan int, n int) {
	p.For(2, n, func(w, lo, hi int) {
		go func() { ch <- lo }() // clean: the goroutine escapes the region
	})
}

func okBody(p *parallel.Pool, dst []float64, n int) {
	p.For(2, n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i]++
		}
	})
}
