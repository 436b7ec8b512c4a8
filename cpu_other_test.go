//go:build !unix

package repro

import "time"

// processCPU is unavailable off unix: no cpu-ms metric is reported.
func processCPU() (time.Duration, bool) { return 0, false }
