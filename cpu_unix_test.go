//go:build unix

package repro

import (
	"syscall"
	"time"
)

// processCPU is the user+system CPU time of this process plus that of
// its reaped children, so a benchmark whose work runs in worker
// processes counts their CPU once each worker has been waited for.
func processCPU() (time.Duration, bool) {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			return 0, false
		}
		total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return total, true
}
