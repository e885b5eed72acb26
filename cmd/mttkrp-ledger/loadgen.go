package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// arrival is one request of an open-loop schedule. The generator fills the
// timestamps, all offsets from the schedule's origin: late is how long
// after its due time the dispatcher handed the request over, sent when a
// sender picked it up, done when the sender finished with it.
type arrival struct {
	due              time.Duration
	class, set, mode int
	late, sent, done time.Duration
	tm               transport.Timing
	err              error
}

// latency is the request's time from due to completion; a failed request
// counts as infinitely late.
func (a *arrival) latency() time.Duration {
	if a.err != nil {
		return time.Duration(math.MaxInt64)
	}
	return a.done - a.due
}

// mixer draws requests from a workload's mix: a class by weight, then a
// factor set and a mode uniformly.
type mixer struct {
	rng         *rand.Rand
	weights     []float64
	total       float64
	sets, modes []int
}

func newMixer(rng *rand.Rand, weights []float64, sets, modes []int) *mixer {
	m := &mixer{rng: rng, weights: weights, sets: sets, modes: modes}
	for _, w := range weights {
		m.total += w
	}
	return m
}

func (m *mixer) draw(due time.Duration) arrival {
	pick, c := m.rng.Float64()*m.total, 0
	for c < len(m.weights)-1 && pick >= m.weights[c] {
		pick -= m.weights[c]
		c++
	}
	return arrival{due: due, class: c, set: m.rng.Intn(m.sets[c]), mode: m.rng.Intn(m.modes[c])}
}

// poisson returns the arrivals of a Poisson process at rate req/s over
// [0, length).
func (m *mixer) poisson(rate float64, length time.Duration) []arrival {
	var arr []arrival
	for t := time.Duration(0); ; {
		t += time.Duration(m.rng.ExpFloat64() / rate * float64(time.Second))
		if t >= length {
			return arr
		}
		arr = append(arr, m.draw(t))
	}
}

// openLoop issues arr (sorted by due time) at origin + due regardless of
// how earlier requests fare: one dispatcher goroutine waits for each due
// time and hands the request to the first free of `senders` goroutines,
// so a slow response delays later requests only by the wait for a free
// sender, which their due-time latency includes. It returns once every
// request has completed, with the most requests in flight at once.
func openLoop(origin time.Time, arr []arrival, senders int, send func(sender int, a *arrival) error) int {
	queue := make(chan int, len(arr)) // sized to the schedule: the dispatcher never blocks
	var inflight, peak atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := range queue {
				a := &arr[i]
				a.sent = time.Since(origin)
				n := inflight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				a.err = send(s, a)
				inflight.Add(-1)
				a.done = time.Since(origin)
			}
		}(s)
	}
	for i := range arr {
		if wait := arr[i].due - time.Since(origin); wait > 0 {
			time.Sleep(wait)
		}
		arr[i].late = time.Since(origin) - arr[i].due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return int(peak.Load())
}

// closedLoop sends arr's requests back to back from `senders` goroutines,
// each starting its next request as soon as its previous one completes, and
// returns the time until the last one completed.
func closedLoop(arr []arrival, senders int, send func(sender int, a *arrival) error) time.Duration {
	origin := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(arr); i = int(next.Add(1)) - 1 {
				a := &arr[i]
				a.sent = time.Since(origin)
				a.err = send(s, a)
				a.done = time.Since(origin)
			}
		}(s)
	}
	wg.Wait()
	return time.Since(origin)
}
