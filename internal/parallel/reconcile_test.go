package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestLeaseReconcileChurn drives a long-lived lease through repeated
// regions with phase-boundary Reconcile calls while peer leases are
// admitted and closed and the admission target is resized up and down —
// the serving scheduler's rebalance pattern (shrink while sweeping, grow
// after a peer drains). Run under -race this also pins that Reconcile,
// Resize, peer reservation and dispatch never touch shared state
// unsynchronized.
func TestLeaseReconcileChurn(t *testing.T) {
	const width = 8
	p := NewPool(width)
	defer p.Close()
	main := p.Lease(width)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	// Peer churn: admit a lease, run one region, close it.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			peer := p.Lease(1 + i%4)
			var n atomic.Int64
			peer.For(0, 64, func(_, lo, hi int) { n.Add(int64(hi - lo)) })
			if n.Load() != 64 {
				t.Error("peer region lost work")
			}
			peer.Close()
		}
	}()
	// Scheduler churn: retarget the main lease mid-flight.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			main.Resize(1 + i%width)
		}
	}()

	// The request: regions separated by phase-boundary reconciles.
	for iter := 0; iter < 400; iter++ {
		var n atomic.Int64
		main.For(0, 512, func(_, lo, hi int) { n.Add(int64(hi - lo)) })
		if n.Load() != 512 {
			t.Fatalf("iter %d: region executed %d of 512 items (shrink lost work)", iter, n.Load())
		}
		if w := main.Reconcile(); w < 1 || w > width {
			t.Fatalf("iter %d: reconciled width %d out of [1, %d]", iter, w, width)
		}
	}
	close(stop)
	churn.Wait()

	// Grow after the peers drained: the full width is reservable again.
	main.Resize(width)
	if w := main.Reconcile(); w != width {
		t.Fatalf("post-churn reconcile = %d, want the full width %d", w, width)
	}
	main.Close()
}
