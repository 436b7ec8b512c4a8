//go:build unix

package reach

import (
	"syscall"
	"time"
)

// processCPU is the user+system CPU time of this process, every
// goroutine's included.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
