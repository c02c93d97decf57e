package analysis

import (
	"fmt"
	"strings"

	"repro/internal/mpi"
)

// Timeline draws per-rank virtual-time utilization from the blocked
// intervals (EvWait events) of an event-traced run: each row is one
// rank, each column a bucket of the run's duration; '#' marks buckets
// more than two thirds blocked, ':' more than 15% blocked, '.' busy. It
// returns nil when the run recorded no events. A rank whose ring
// dropped events shows only the prefix it kept.
func Timeline(rep *mpi.Report, width int) []string {
	if !rep.EventTracing() || width < 1 || rep.MaxVirtualTime <= 0 {
		return nil
	}
	bucket := rep.MaxVirtualTime / float64(width)
	waitPerBucket := make([]float64, width)
	out := make([]string, rep.Procs)
	for rank := range out {
		clear(waitPerBucket)
		for _, e := range rep.Events(rank) {
			if e.Kind != mpi.EvWait {
				continue
			}
			for b := int(e.Start / bucket); b < width && float64(b)*bucket < e.End; b++ {
				lo := max(float64(b)*bucket, e.Start)
				hi := min(float64(b+1)*bucket, e.End)
				if hi > lo {
					waitPerBucket[b] += hi - lo
				}
			}
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "rank %3d |", rank)
		for _, w := range waitPerBucket {
			switch frac := w / bucket; {
			case frac > 0.66:
				sb.WriteByte('#')
			case frac > 0.15:
				sb.WriteByte(':')
			default:
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('|')
		out[rank] = sb.String()
	}
	return out
}
