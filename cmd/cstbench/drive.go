package main

import (
	"sync"
	"sync/atomic"
)

// drive sends runs from clients goroutines in a closed loop: each client
// waits for a run's result before it starts its next run. When the runs have
// no owner (Client -1) the clients share one queue; otherwise each client
// sends, in list order, the runs it owns. Results come back in list order,
// each with the process's memory footprint when it completed.
func drive(runs []run, clients int, do func(run) result) []result {
	out := make([]result, len(runs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if len(runs) > 0 && runs[0].Client < 0 {
				for i := int(next.Add(1)) - 1; i < len(runs); i = int(next.Add(1)) - 1 {
					out[i] = do(runs[i])
					out[i].MemMB = memMB()
				}
				return
			}
			for i := range runs {
				if runs[i].Client == c {
					out[i] = do(runs[i])
					out[i].MemMB = memMB()
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}
