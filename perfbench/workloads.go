package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/distgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/order"
)

// solveDeadline bounds one matching.Run; a solve that hits it counts as
// failed, and it keeps a hung world from outliving the benchmark's
// own time limit.
const solveDeadline = 60 * time.Second

// A workload is one set of generated inputs and the solves run on them.
// The generators and their parameters are the experiment harness's; the
// seed comes from the command line, and the program only ever sees the
// generated graphs.
type workload struct {
	name  string
	why   string
	procs int
	// seed is the harness's generator seed, used when --seed is absent.
	seed   int64
	models []matching.Model
	// events is the per-rank event-ring capacity. When > 0 every solve
	// records events and round telemetry and is run through the trace
	// analyzer, as matchprof does.
	events int
	// setup builds the inputs: generation, CSR build and reordering,
	// everything paid before the first world launch. It times its calls
	// into the program on rec.
	setup func(seed int64, rec *recorder) []input
}

type input struct {
	name string
	g    *graph.CSR
}

// rggStrip is the harness's RGG weak-scaling input (ex_ranks.go,
// workloads.go): n vertices at expected degree 8, x-sorted, so block
// distribution gives every rank at most two process neighbours.
func rggStrip(n int) func(int64, *recorder) []input {
	return func(seed int64, rec *recorder) []input {
		var g *graph.CSR
		rec.time("gen.s", func() { g = gen.RGG(n, gen.RGGRadiusForDegree(n, 8), seed) })
		return []input{{"rgg", g}}
	}
}

var workloads = []*workload{
	{
		name:   "sbp-dense",
		why:    "SBP/HILO at 64 ranks, 63 process neighbours/rank: probe polling and mailbox work dominate; virtual time exact for RMA/NCL/NCLI/NCLC, wobbles for NSR/NSRA/MBP",
		procs:  64,
		seed:   3003 + 64,
		models: matching.Models,
		setup: func(seed int64, rec *recorder) []input {
			// Twice the fig4c 64-rank input (harness sbpWeak at scale 2).
			n := 2 * 700 * 64
			var g *graph.CSR
			rec.time("gen.s", func() { g = gen.SBP(n, n/150, 9, 0.6, seed) })
			return []input{{"sbp", g}}
		},
	},
	{
		name:   "rgg-strip",
		why:    "RGG strips at 64 ranks, <=2 process neighbours/rank: generation, CSR build and engine compute dominate; the bypass case for mailbox or collective changes",
		procs:  64,
		seed:   1001 + 64,
		models: matching.Models,
		setup:  rggStrip(6000 * 64),
	},
	// rgg-16k is runnable by name but not listed in BENCHMARK.json: one
	// pass takes 10-14 s, and its CPU time and allocation move by 8-14%
	// from run to run at one or two passes a run, more than the bounds
	// the listed workloads hold.
	{
		name:   "rgg-16k",
		why:    "RGG at 16384 ranks x 4 vertices, NCL and NSR: worker-pool scheduler, world set-up and neighbourhood/collective traffic through the internal-tag mailbox",
		procs:  16384,
		seed:   7001 + 16384,
		models: []matching.Model{matching.NCL, matching.NSR},
		setup:  rggStrip(4 * 16384),
	},
	{
		name:   "mesh-rcm-traced",
		why:    "HV15R-like mesh, original and RCM orders, NSR/NCL/RMA with event rings and trace analysis: the only workload that runs order and analysis",
		procs:  64,
		seed:   63,
		models: []matching.Model{matching.NSR, matching.NCL, matching.RMA},
		events: 96 << 10,
		setup: func(seed int64, rec *recorder) []input {
			var orig, rcm *graph.CSR
			rec.time("gen.s", func() { orig = gen.OrderByDegree(gen.BandedMesh(100000, 48, 5, 0.001, seed)) })
			rec.time("order.s", func() { rcm = order.Apply(orig, order.RCM(orig)) })
			return []input{{"original", orig}, {"rcm", rcm}}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// passResult is one pass's measurements plus its solve accounting.
type passResult struct {
	m                 sample
	attempted, failed int
	// problems describes every failed solve and dropped event.
	problems []string
}

// pass runs the workload once: set-up, then for every input the block
// distribution built for every rank, the serial oracle, an empty world
// at the workload's rank count, and each model's solve, checked against
// the oracle and, on traced workloads, analysed. Every call into the
// program is timed from here, on one goroutine.
func (w *workload) pass(seed int64, rec *recorder) *passResult {
	res := &passResult{m: sample{}}
	m := res.m
	rec.into = m
	defer func() { rec.into = nil }()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec.begin("pass")
	rec.begin("setup")
	inputs := w.setup(seed, rec)
	m["setup_wall_s"], m["setup_s"] = rec.end()

	var arcs, waitSum, clockSum float64
	for _, in := range inputs {
		g := in.g
		rec.begin("input:" + in.name)
		rec.time("distgraph.s", func() {
			d := distgraph.NewBlockDist(g, w.procs)
			for r := 0; r < w.procs; r++ {
				d.BuildLocal(r)
			}
		})
		var oracle *matching.Result
		rec.time("serial.s", func() { oracle = matching.Serial(g) })
		if err := matching.Verify(g, oracle); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("%s: serial oracle: %v", in.name, err))
		}
		var werr error
		rec.time("mpi.world_s", func() {
			_, werr = mpi.Run(w.procs, func(*mpi.Comm) error { return nil })
		})
		if werr != nil {
			res.problems = append(res.problems, fmt.Sprintf("%s: empty world: %v", in.name, werr))
		}

		for _, model := range w.models {
			res.attempted++
			opt := matching.Options{Procs: w.procs, Model: model, Deadline: solveDeadline}
			if w.events > 0 {
				opt.TraceEvents, opt.RoundLog = w.events, 512
			}
			var pr *matching.ParallelResult
			var err error
			wall, cpu := rec.time("matching.run_s."+model.String(), func() { pr, err = matching.Run(g, opt) })
			m["solve_s"] += wall
			m["solve_cpu_s"] += cpu
			if err == nil {
				rec.time("verify.s", func() { err = sameMatching(g, oracle, pr.Result) })
			}
			if err != nil {
				res.failed++
				res.problems = append(res.problems, fmt.Sprintf("%s/%v: %v", in.name, model, err))
				continue
			}
			arcs += float64(g.NumArcs())
			m["virtual_ms"] += pr.Report.MaxVirtualTime * 1e3
			m["virtual_ms."+model.String()] += pr.Report.MaxVirtualTime * 1e3
			m["transport.messages"] += float64(pr.Messages)
			m["transport.messages."+model.String()] += float64(pr.Messages)
			m["transport.rounds"] += float64(pr.Rounds)
			ledger(m, pr.Report)
			for _, rs := range pr.Report.Stats {
				waitSum += rs.WaitTime
			}
			clockSum += pr.Report.TotalVirtualTime

			if w.events > 0 {
				var drops int64
				for r := 0; r < w.procs; r++ {
					drops += pr.Report.EventDrops(r)
					m["mpi.event_ring_peak"] = max(m["mpi.event_ring_peak"], float64(len(pr.Report.Events(r))))
				}
				m["mpi.event_drops"] += float64(drops)
				if drops > 0 {
					res.problems = append(res.problems, fmt.Sprintf("%s/%v: %d events dropped (ring %d/rank)", in.name, model, drops, w.events))
				}
				var ar *analysis.Record
				rec.time("analysis.s", func() {
					ar, err = analysis.Analyze(pr.Report, analysis.Options{Model: model.String(), Telemetry: pr.Telemetry})
				})
				if err != nil {
					res.problems = append(res.problems, fmt.Sprintf("%s/%v: analysis: %v", in.name, model, err))
					continue
				}
				m["analysis.events"] += float64(ar.Events)
			}
		}
		rec.end()
	}

	m["wall_s"], m["pass_cpu_s"] = rec.end()
	runtime.ReadMemStats(&after)
	m["alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	m["runtime.mallocs"] = float64(after.Mallocs - before.Mallocs)
	m["runtime.gc_count"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	if m["solve_s"] > 0 && m["solve_cpu_s"] > 0 {
		m["arcs_per_s"] = arcs / m["solve_s"]
		m["arcs_per_cpu_s"] = arcs / m["solve_cpu_s"]
	}
	if clockSum > 0 {
		m["virtual.wait_frac"] = waitSum / clockSum
	}
	if m["mpi.probes"] > 0 {
		m["mpi.probe_hit_ratio"] = m["mpi.probe_hits"] / m["mpi.probes"]
	}
	if m["analysis.s"] > 0 {
		m["analysis.events_per_s"] = m["analysis.events"] / m["analysis.s"]
	}
	return res
}

// ledger adds one solve's runtime traffic counters to m.
func ledger(m sample, rep *mpi.Report) {
	t := rep.Totals()
	m["mpi.p2p_msgs"] += float64(t.P2PMsgs)
	m["mpi.put_msgs"] += float64(t.PutMsgs)
	m["mpi.nbr_ops"] += float64(t.NbrOps)
	m["mpi.coll_ops"] += float64(t.CollOps)
	m["mpi.queue_highwater_bytes"] = max(m["mpi.queue_highwater_bytes"], float64(t.MaxQueueHighWater))
	for r, rs := range rep.Stats {
		m["mpi.probes"] += float64(rs.ProbeCount)
		m["mpi.probe_hits"] += float64(rs.ProbeHits)
		m["mpi.unreceived_msgs"] += float64(rs.UnreceivedMsgs)
		m["mpi.events"] += float64(len(rep.Events(r)))
	}
}

// sameMatching is the correctness gate: a half-approximate solve must
// reproduce the serial oracle's mate vector, weight and cardinality
// exactly, and pass matching.Verify on its own.
func sameMatching(g *graph.CSR, oracle, got *matching.Result) error {
	if err := matching.Verify(g, got); err != nil {
		return err
	}
	if !slices.Equal(oracle.Mate, got.Mate) {
		return fmt.Errorf("mate vector differs from the serial oracle")
	}
	if got.Weight != oracle.Weight || got.Cardinality != oracle.Cardinality {
		return fmt.Errorf("weight %g / cardinality %d, serial oracle has %g / %d",
			got.Weight, got.Cardinality, oracle.Weight, oracle.Cardinality)
	}
	return nil
}
