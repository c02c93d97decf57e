package main

import "testing"

func TestClassify(t *testing.T) {
	type frame = [2]string
	cases := []struct {
		name   string
		frames []frame
		want   string
	}{
		{"mailbox leaf", []frame{
			{"repro/internal/mpi.(*msgq).front", "/src/internal/mpi/mailbox.go"},
			{"repro/internal/transport.(*NCL).Exchange", "/src/internal/transport/transport.go"},
		}, "mpi.p2p"},
		{"standard library internal package charged to its caller", []frame{
			{"internal/sync.(*Mutex).Unlock", "/go/src/internal/sync/mutex.go"},
			{"repro/internal/mpi.(*Topo).NeighborAlltoallInt64Into", "/src/internal/mpi/topo.go"},
		}, "mpi.coll"},
		{"helper packages looked past", []frame{
			{"repro/internal/rng.(*Stream).Next", "/src/internal/rng/rng.go"},
			{"repro/internal/gen.SBP.func3", "/src/internal/gen/gen.go"},
			{"repro/internal/par.Do.func1", "/src/internal/par/par.go"},
		}, "gen"},
		{"garbage collection wins over any caller", []frame{
			{"runtime.scanobject", "/go/src/runtime/mgcmark.go"},
			{"runtime.gcAssistAlloc", "/go/src/runtime/mgcmark.go"},
			{"repro/internal/graph.(*Builder).Build", "/src/internal/graph/builder.go"},
		}, "gc"},
		{"other mpi files", []frame{{"repro/internal/mpi.(*Comm).charge", "/src/internal/mpi/cost.go"}}, "mpi.other"},
		{"benchmark code", []frame{{"main.sameMatching", "/src/perfbench/workloads.go"}}, "other"},
		{"runtime only", []frame{{"runtime.findRunnable", "/go/src/runtime/proc.go"}}, "runtime"},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("%s: classify = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestMedianAndTail(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	few := make([]sample, 99)
	if s := tail(few, "x"); s != "" {
		t.Errorf("99 samples leave fewer than ten beyond p90, got %q", s)
	}
	many := make([]sample, 100)
	for i := range many {
		many[i] = sample{"x": float64(i)}
	}
	if s := tail(many, "x"); s != ", p90=89" {
		t.Errorf("tail of 100 samples = %q", s)
	}
}
