package stream

import (
	"testing"

	"repro/internal/parallel"
)

func TestRunAndVerify(t *testing.T) {
	p := parallel.NewPool(4)
	defer p.Close()
	for _, threads := range []int{1, 2, 4} {
		s := New(10000)
		d := s.RunOn(p, threads)
		if d <= 0 {
			t.Errorf("threads=%d: non-positive duration", threads)
		}
		if err := s.Verify(); err != nil {
			t.Errorf("threads=%d: %v", threads, err)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	p := parallel.NewPool(1)
	defer p.Close()
	s := New(100)
	s.RunOn(p, 1)
	s.b[50] += 1
	if err := s.Verify(); err == nil {
		t.Error("expected verification failure")
	}
}

func TestBytesAndBandwidth(t *testing.T) {
	s := New(1000)
	if s.Len() != 1000 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Bytes() != 16000 {
		t.Errorf("Bytes = %d, want 16000", s.Bytes())
	}
	if s.BandwidthGBps(0) != 0 {
		t.Error("zero duration should give zero bandwidth")
	}
	p := parallel.NewPool(2)
	defer p.Close()
	d := s.RunOn(p, 2)
	if bw := s.BandwidthGBps(d); bw <= 0 {
		t.Errorf("bandwidth %v", bw)
	}
}

// TestRunOnExplicitPool pins t = 0 on a caller-owned pool: the sweep runs
// at the pool's natural width and writes every element.
func TestRunOnExplicitPool(t *testing.T) {
	p := parallel.NewPool(3)
	defer p.Close()
	s := New(10000)
	if d := s.RunOn(p, 0); d <= 0 {
		t.Errorf("non-positive duration %v", d)
	}
	if err := s.Verify(); err != nil {
		t.Error(err)
	}
}
