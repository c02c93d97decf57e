package main

import (
	"encoding/json"
	"os"
	"syscall"
	"time"
)

// A span is one timed call into the program, or a group of them: its
// name, its start and end in seconds since the run began, and the index
// of the enclosing span (-1 at the top).
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// CPU is the process's CPU time (all threads) spent inside the span.
	CPU float64 `json:"cpu_s"`
}

// recorder keeps a run's spans in memory; traced runs write them out
// when the run ends.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	// into, when set, receives every timed call's length under the
	// call's span name, which is the metric it feeds.
	into sample
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return time.Since(r.t0).Seconds() }

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name string) {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: r.now(), CPU: -cpuTime()})
	r.open = append(r.open, len(r.spans)-1)
}

// end closes the innermost open span and returns its wall and CPU
// seconds.
func (r *recorder) end() (wall, cpu float64) {
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[i]
	s.End = r.now()
	s.CPU += cpuTime()
	return s.End - s.Start, s.CPU
}

// time runs f inside a span, adds its wall seconds to into[name] and
// returns its wall and CPU seconds.
func (r *recorder) time(name string, f func()) (wall, cpu float64) {
	r.begin(name)
	f()
	wall, cpu = r.end()
	if r.into != nil {
		r.into[name] += wall
	}
	return wall, cpu
}

// cpuTime is the process's user plus system CPU time in seconds. Unlike
// wall time it leaves out time the host's hypervisor gave the CPUs to
// someone else (steal), which on a shared box dominates run-to-run
// spread.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// dump writes every span as one JSON array.
func (r *recorder) dump(path string) error {
	blob, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
