// Command perfbench is the repository's end-to-end benchmark. It calls
// each layer's public entry points in sequence from one goroutine —
// graph generation, reordering, block distribution, the serial oracle,
// an empty world, distributed matching under every model of the
// workload, and trace analysis — and times every call from outside, on
// the physical clock. The simulated ranks are the program's own
// goroutines. Every solve is checked against the serial oracle; any
// mismatch, failed solve or dropped trace event makes the command exit 1
// without printing a result.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sbp-dense --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 5 --trace 1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it spends half the time untraced and half under a CPU
// profile, and carries the per-layer metrics: the benchmark's own spans,
// the runtime ledgers, and the profile's samples charged to layers by
// source file. The last line of standard output is one JSON object; the
// lines before it print every metric by name and unit, with the
// environment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"
)

// A metric is one reported figure: its name and unit.
type metric struct{ name, unit string }

// endToEnd are the figures a user of the simulator sees, measured with
// tracing off, and the result's metrics on an untraced run. Times are
// process CPU seconds (all threads): on a shared host the hypervisor's
// steal moves wall time by 20-30% from run to run and CPU time by a few
// percent. Each is a median over the run's passes (setup_s over its
// set-ups).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"solve_cpu_s", "s"},
	{"pass_cpu_s", "s"},
	{"arcs_per_cpu_s", "arcs/s"},
	{"alloc_mb", "MB"},
}

// wallClock are the same figures on the wall clock, with the modelled
// virtual time; they are printed on every run but left out of the
// result, whose bounds they could not meet on a shared host (virtual
// time moves with the seed's input, not with the simulator's speed).
var wallClock = []metric{
	{"setup_wall_s", "s"},
	{"solve_s", "s"},
	{"wall_s", "s"},
	{"arcs_per_s", "arcs/s"},
	{"virtual_ms", "ms"},
}

// perLayer are the traced run's figures. Only figures every workload
// measures are here; the ones a single workload exercises (textOnly and
// the per-model figures of models a workload does not run) are printed
// as text only.
var perLayer = []metric{
	{"gen.s", "s"},
	{"distgraph.s", "s"},
	{"serial.s", "s"},
	{"mpi.world_s", "s"},
	{"matching.run_s.NSR", "s"},
	{"matching.run_s.NCL", "s"},
	{"virtual_ms.NSR", "ms"},
	{"virtual_ms.NCL", "ms"},
	{"transport.messages", "count"},
	{"transport.messages.NSR", "count"},
	{"transport.messages.RMA", "count"},
	{"transport.messages.NCL", "count"},
	{"transport.messages.MBP", "count"},
	{"transport.messages.NCLI", "count"},
	{"transport.messages.NSRA", "count"},
	{"transport.messages.NCLC", "count"},
	{"transport.rounds", "count"},
	{"mpi.p2p_msgs", "count"},
	{"mpi.probes", "count"},
	{"mpi.probe_hit_ratio", "ratio"},
	{"mpi.unreceived_msgs", "count"},
	{"mpi.queue_highwater_bytes", "bytes"},
	{"mpi.nbr_ops", "count"},
	{"mpi.coll_ops", "count"},
	{"mpi.put_msgs", "count"},
	{"mpi.events", "count"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_s", "s"},
	{"virtual.wait_frac", "ratio"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_cpu_s", "s"},
	{"cpu.gen", "%"},
	{"cpu.graph", "%"},
	{"cpu.order", "%"},
	{"cpu.distgraph", "%"},
	{"cpu.matching", "%"},
	{"cpu.transport", "%"},
	{"cpu.mpi.p2p", "%"},
	{"cpu.mpi.coll", "%"},
	{"cpu.mpi.rma", "%"},
	{"cpu.mpi.sched", "%"},
	{"cpu.mpi.events", "%"},
	{"cpu.mpi.other", "%"},
	{"cpu.analysis", "%"},
	{"cpu.gc", "%"},
	{"cpu.runtime", "%"},
	{"cpu.other", "%"},
}

// textOnly are traced figures printed beside the result but left out of
// it, because some workload never exercises them.
var textOnly = []metric{
	{"order.s", "s"},
	{"analysis.s", "s"},
	{"analysis.events_per_s", "events/s"},
	{"mpi.event_drops", "count"},
	{"mpi.event_ring_peak", "count"},
	{"verify.s", "s"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the exit. Exit codes: 0 success, 1 a failed
// check or run, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "workload name, comma-separated list, or all")
		seed    = fs.Int64("seed", -1, "generator seed; negative keeps each workload's harness seed")
		seconds = fs.Float64("seconds", 20, "measuring time per workload")
		trace   = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		workdir = fs.String("workdir", ".bench_build", "directory for the CPU profile and span dumps")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []*workload
	if *names == "all" {
		selected = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w := findWorkload(n)
			if w == nil {
				fmt.Fprintf(stderr, "perfbench: unknown workload %q; valid:", n)
				for _, w := range workloads {
					fmt.Fprintf(stderr, " %s", w.name)
				}
				fmt.Fprintln(stderr, " all")
				return 2
			}
			selected = append(selected, w)
		}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	fmt.Fprintf(stdout, "# env nproc=%d GOMAXPROCS=%d go=%s os=%s/%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	budget := time.Duration(*seconds * float64(time.Second) / float64(len(selected)))
	result := map[string]any{}
	attempted, ok := 0, true
	for _, w := range selected {
		s := *seed
		if s < 0 {
			s = w.seed
		}
		fmt.Fprintf(stdout, "# workload %s: %s\n# procs=%d seed=%d models=%v budget=%v trace=%d\n",
			w.name, w.why, w.procs, s, w.models, budget.Round(time.Millisecond), *trace)
		r, err := measure(w, s, budget, *trace == 1, *workdir, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		attempted += r.attempted
		if len(r.problems) > 0 {
			ok = false
			for _, p := range r.problems {
				fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, p)
			}
		}
		fmt.Fprintf(stdout, "%-28s %12.6g %-8s %s\n", "failed_frac", float64(r.failed)/float64(r.attempted), "ratio", "(failed solves / attempted)")
		list := endToEnd
		if *trace == 1 {
			list = perLayer
		}
		for _, mt := range list {
			name := mt.name
			if len(selected) > 1 {
				name = w.name + "." + name
			}
			result[name] = map[string]any{"value": r.median[mt.name], "unit": mt.unit}
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "perfbench: FAILED — no result reported")
		return 1
	}
	line, err := json.Marshal(map[string]any{"correct": true, "attempted": attempted, "failed": 0, "metrics": result})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// sample is one pass's figures by metric name.
type sample map[string]float64

// runResult is one workload's run: the median of every figure over its
// passes, and the solve and check accounting.
type runResult struct {
	median            map[string]float64
	attempted, failed int
	problems          []string
}

// setupReps is how many extra set-ups a run times before its passes, so
// that setup_s is a median of several even when only one or two whole
// passes fit in the budget.
const setupReps = 4

// measure runs w's passes for about budget, after a warm-up pass, and
// prints every figure. A traced run spends the first half untraced and
// the second half under the CPU profile; per-layer figures come from
// the traced passes, and the tracing overhead is the difference of the
// two halves' medians.
func measure(w *workload, seed int64, budget time.Duration, traced bool, workdir string, out io.Writer) (*runResult, error) {
	res := &runResult{median: map[string]float64{}}
	rec := newRecorder()
	var setups []sample
	for i := 0; i < setupReps; i++ {
		rec.begin("setup")
		w.setup(seed, rec)
		wall, cpu := rec.end()
		setups = append(setups, sample{"setup_wall_s": wall, "setup_s": cpu})
	}

	// passes runs whole passes until the time is past until (at least
	// one), collecting their samples; the last overruns until by less
	// than a pass. Every pass is checked, measured or not.
	passes := func(until time.Time, label string) []sample {
		var got []sample
		for len(got) == 0 || time.Now().Before(until) {
			p := w.pass(seed, rec)
			res.attempted += p.attempted
			res.failed += p.failed
			res.problems = append(res.problems, p.problems...)
			got = append(got, p.m)
			fmt.Fprintf(out, "# %s pass %d: wall=%.3fs cpu=%.3fs solve wall=%.3fs cpu=%.3fs alloc=%.1fMB\n",
				label, len(got), p.m["wall_s"], p.m["pass_cpu_s"], p.m["solve_s"], p.m["solve_cpu_s"], p.m["alloc_mb"])
		}
		return got
	}
	// The first pass fills the runtime's pools and grows the heap; at
	// 16K ranks it allocates ~30% more than later passes and runs
	// slower, so it is a warm-up and the budget starts after it.
	passes(time.Time{}, "warm-up")
	start := time.Now()
	end := start.Add(budget)
	var samples []sample
	if !traced {
		samples = passes(end, "untraced")
	} else {
		plain := passes(start.Add(budget/2), "untraced")
		prof := filepath.Join(workdir, "cpu-"+w.name+".pprof")
		f, err := os.Create(prof)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		samples = passes(end, "traced")
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
		shares, n, err := cpuShares(prof)
		if err != nil {
			return nil, fmt.Errorf("attributing the CPU profile: %w", err)
		}
		fmt.Fprintf(out, "# cpu profile: %d stacks, charged to layers by source file\n", n)
		for _, mt := range perLayer {
			if l, ok := strings.CutPrefix(mt.name, "cpu."); ok {
				res.median[mt.name] = shares[l]
			}
		}
		res.median["trace.overhead_s"] = medianOf(samples, "wall_s") - medianOf(plain, "wall_s")
		res.median["trace.overhead_cpu_s"] = medianOf(samples, "pass_cpu_s") - medianOf(plain, "pass_cpu_s")
		if err := rec.dump(filepath.Join(workdir, "spans-"+w.name+".json")); err != nil {
			return nil, err
		}
	}

	for _, s := range samples {
		for k := range s {
			if _, seen := res.median[k]; !seen {
				res.median[k] = medianOf(samples, k)
			}
		}
	}
	setups = append(setups, samples...)
	for _, k := range []string{"setup_s", "setup_wall_s"} {
		res.median[k] = medianOf(setups, k)
	}

	if len(res.problems) == 0 {
		printFigures(out, res.median, samples, setups, traced)
	}
	return res, nil
}

// printFigures writes every figure of the run by name and unit: the
// end-to-end metrics on both clocks, then (traced) the per-layer ones,
// the per-model ledger and the figures kept out of the result.
func printFigures(out io.Writer, med map[string]float64, samples, setups []sample, traced bool) {
	line := func(name, unit string) {
		from := samples
		if strings.HasPrefix(name, "setup_") {
			from = setups
		}
		fmt.Fprintf(out, "%-28s %12.6g %-8s median of n=%d%s\n", name, med[name], unit, len(from), tail(from, name))
	}
	for _, mt := range append(slices.Clone(endToEnd), wallClock...) {
		line(mt.name, mt.unit)
	}
	if !traced {
		return
	}
	for _, mt := range perLayer {
		line(mt.name, mt.unit)
	}
	var models []string
	for k := range med {
		if m, ok := strings.CutPrefix(k, "virtual_ms."); ok && m != "NSR" && m != "NCL" {
			models = append(models, m)
		}
	}
	sort.Strings(models)
	for _, m := range models {
		line("virtual_ms."+m, "ms")
		line("matching.run_s."+m, "s")
	}
	for _, mt := range textOnly {
		line(mt.name, mt.unit)
	}
}

// tail names the highest of p99 and p90 that leaves at least ten
// samples beyond it (nearest rank), or nothing when the run holds too
// few passes.
func tail(samples []sample, name string) string {
	n := len(samples)
	for _, p := range []int{99, 90} {
		if n*(100-p) >= 10*100 {
			vs := values(samples, name)
			slices.Sort(vs)
			return fmt.Sprintf(", p%d=%.6g", p, vs[(p*n+99)/100-1])
		}
	}
	return ""
}

func values(samples []sample, name string) []float64 {
	vs := make([]float64, len(samples))
	for i, s := range samples {
		vs[i] = s[name]
	}
	return vs
}

func medianOf(samples []sample, name string) float64 { return median(values(samples, name)) }

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuModel reads the processor name for the environment line.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
