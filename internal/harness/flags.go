package harness

import (
	"fmt"
	"math"
	"time"
)

// maxRanks bounds a -ranks cap: larger worlds exceed any host's memory.
const maxRanks = 1 << 20

// CheckRunFlags validates the run-shaping flags matchbench and matchprof
// share and names the offending flag in its error: scale must be finite
// and positive, timeout positive, the event-ring and round-log
// capacities non-negative, and a ranks cap 0 (the default) or within
// 2..maxRanks.
func CheckRunFlags(scale float64, timeout time.Duration, traceEvents, roundCap, ranks int) error {
	switch {
	case math.IsNaN(scale) || math.IsInf(scale, 0) || scale <= 0:
		return fmt.Errorf("-scale %v must be a finite number > 0", scale)
	case timeout <= 0:
		return fmt.Errorf("-timeout %v must be > 0", timeout)
	case traceEvents < 0:
		return fmt.Errorf("-trace-events %d must be >= 0", traceEvents)
	case roundCap < 0:
		return fmt.Errorf("-round-cap %d must be >= 0", roundCap)
	case ranks != 0 && (ranks < 2 || ranks > maxRanks):
		return fmt.Errorf("-ranks %d out of range (want 0 or 2..%d)", ranks, maxRanks)
	}
	return nil
}
