//go:build !unix

package reach

import "time"

// processCPU is unavailable off unix: no cpu-ms/op is reported.
func processCPU() (time.Duration, bool) { return 0, false }
