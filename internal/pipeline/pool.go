package pipeline

import (
	"context"
	"runtime"
	"sync"
)

// Workers resolves a worker-count option: values < 1 select GOMAXPROCS.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// inFlight is how many of n jobs a pool with the given worker-count option
// runs at once: a one-job batch has one job in flight however many CPUs
// the pool could use.
func inFlight(workers, n int) int {
	return min(Workers(workers), n)
}

// ForEach runs fn(ctx, i) for every i in [0, n) across a pool of workers
// goroutines and returns the per-item errors. Cancellation is cooperative:
// once ctx is done no new items are dispatched — items never started report
// ctx.Err() — but items already in flight run to completion, so partial
// work remains observable. ForEach itself never fails; inspect the returned
// slice for item outcomes.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	workers = inFlight(workers, n)
	items := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range items {
				errs[i] = fn(ctx, i)
			}
		}()
	}
	i := 0
dispatch:
	for ; i < n; i++ {
		select {
		case items <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(items)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for ; i < n; i++ {
			errs[i] = err
		}
	}
	return errs
}
