package main

import (
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// arrivals returns n Poisson arrival offsets over [0, window): a Poisson
// process conditioned on n arrivals places them as sorted independent
// uniforms. Fixing n (rate × window) keeps every run's offered load
// identical while the gaps stay exponential.
func arrivals(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// loopTimes is what openLoop measured.
type loopTimes struct {
	start time.Time
	end   time.Time       // last completion
	lat   []time.Duration // completion minus scheduled send time
	lag   []time.Duration // actual hand-off minus scheduled send time
}

// openLoop issues request i at start+offsets[i], whether or not earlier
// requests have finished, over conns workers (the client's connections);
// do(i) sends request i and returns once its response is complete.
//
// Latency runs from the scheduled send time, not from when a worker
// picked the request up: a request that waited behind a stalled one is
// charged for the wait, so a stall shows in every request it delayed
// (no coordinated omission). lag records how late the generator itself
// handed each request off.
func openLoop(offsets []time.Duration, conns int, do func(i int)) loopTimes {
	t := loopTimes{lat: make([]time.Duration, len(offsets)), lag: make([]time.Duration, len(offsets))}
	due := make(chan int, len(offsets)) // never blocks the generator
	var mu sync.Mutex
	var wg sync.WaitGroup
	t.start = time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				do(i)
				done := time.Now()
				mu.Lock()
				t.lat[i] = done.Sub(t.start.Add(offsets[i]))
				if done.After(t.end) {
					t.end = done
				}
				mu.Unlock()
			}
		}()
	}
	for i, off := range offsets {
		time.Sleep(time.Until(t.start.Add(off)))
		t.lag[i] = time.Since(t.start.Add(off))
		due <- i
	}
	close(due)
	wg.Wait()
	return t
}
