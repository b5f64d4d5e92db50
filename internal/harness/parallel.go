package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// forEach runs fn(i) for every i in [0,n) on at most workers goroutines
// (Options.Workers: 0 means one per logical CPU).
// Each RunOne owns its engine, platform, and RNG streams and is a pure
// function of its arguments, so callers fan experiments out here and write
// results into index-addressed slots — output order (and therefore every
// figure byte) is identical to a sequential loop regardless of
// scheduling. With one worker, or one job, it runs inline.
func forEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
