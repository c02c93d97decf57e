package analysis

import (
	"strings"
	"testing"
	"time"

	"repro/internal/matching"
	"repro/internal/mpi"
)

// waitingPair runs two ranks where rank 1 blocks on a receive while
// rank 0 computes, with the given extra options.
func waitingPair(t *testing.T, opts ...mpi.Option) *mpi.Report {
	t.Helper()
	rep, err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.Compute(100000) // keep rank 1 waiting
			c.Isend(1, 0, []int64{1})
		} else {
			c.Recv(0, 0)
		}
		return nil
	}, append(opts, mpi.WithDeadline(30*time.Second))...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRenderTimeline(t *testing.T) {
	lines := Timeline(waitingPair(t, mpi.WithEventTrace(64)), 40)
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.Contains(lines[1], "#") {
		t.Errorf("waiting rank shows no wait marks: %q", lines[1])
	}
	if strings.Contains(lines[0], "#") {
		t.Errorf("busy rank shows wait marks: %q", lines[0])
	}
}

func TestTimelineDisabledWithoutTrace(t *testing.T) {
	if lines := Timeline(waitingPair(t), 10); lines != nil {
		t.Errorf("timeline rendered without event tracing: %q", lines)
	}
}

// TestWaitEventsSumToWaitTime checks the invariant the timeline rests
// on: the runtime adds to RankStats.WaitTime in exactly one place, the
// one that records each blocked interval as an EvWait event, so on a run
// whose rings dropped nothing each rank's EvWait durations, summed in
// event order, equal its WaitTime bit for bit.
func TestWaitEventsSumToWaitTime(t *testing.T) {
	res := runModel(t, testGraph(t), matching.NCL, 8)
	rep := res.Report
	var waited int
	for r := 0; r < rep.Procs; r++ {
		if d := rep.EventDrops(r); d != 0 {
			t.Fatalf("rank %d dropped %d events", r, d)
		}
		var sum float64
		for _, e := range rep.Events(r) {
			if e.Kind == mpi.EvWait {
				sum += e.End - e.Start
			}
		}
		if sum != rep.Stats[r].WaitTime {
			t.Errorf("rank %d: EvWait durations sum to %v, WaitTime is %v", r, sum, rep.Stats[r].WaitTime)
		}
		if sum > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Error("no rank waited; the invariant was not exercised")
	}
}
