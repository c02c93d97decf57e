// Package driver is the SPMD substrate the owner-computes applications
// share (paper §IV-D: the transports "can be applied to any graph
// algorithm imitating the owner-computes model"). It owns the run
// options and their translation to the runtime, the block
// distribution, the per-rank transport and round telemetry, the
// per-rank tallies and their reduction — and one protocol loop, whose
// shape (Drain/Block or Exchange plus a counting reduction) follows the
// model's flavor. An application supplies a rank body; applications
// whose termination is counted implement Protocol and let Loop drive
// them.
package driver

import (
	"fmt"
	"time"

	"repro/internal/distgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Options configures one distributed application run.
type Options struct {
	// Procs is the number of simulated MPI ranks. Must be >= 1.
	Procs int
	// Model selects the communication model carrying protocol records.
	Model transport.Model
	// Cost overrides the virtual-time cost model (nil = defaults).
	Cost *mpi.CostModel
	// TrackMatrices enables per-pair communication matrices (Fig 2/9/11).
	TrackMatrices bool
	// Deadline bounds wall-clock execution (0 = no watchdog).
	Deadline time.Duration
	// TraceEvents, when > 0, enables structured event tracing with a
	// per-rank ring of this capacity (Report.Events, WriteChromeTrace).
	TraceEvents int
	// RoundLog, when > 0, enables round-level protocol telemetry with a
	// per-rank log of this capacity (Result.Telemetry). Rounds beyond
	// the capacity are dropped, not wrapped; see Series.Drops.
	RoundLog int
	// Perturb, when enabled, runs under seeded schedule perturbation
	// (mpi.WithPerturb): the runtime varies its legal delivery
	// reorderings according to PerturbSeed. See internal/sched and
	// DESIGN §4.
	Perturb     sched.Profile
	PerturbSeed uint64
}

// mpiOptions translates the run options to mpi.Run options.
func (o Options) mpiOptions() []mpi.Option {
	opts := make([]mpi.Option, 0, 5)
	if o.Cost != nil {
		opts = append(opts, mpi.WithCost(o.Cost))
	}
	if o.TrackMatrices {
		opts = append(opts, mpi.WithMatrices())
	}
	if o.Deadline > 0 {
		opts = append(opts, mpi.WithDeadline(o.Deadline))
	}
	if o.TraceEvents > 0 {
		opts = append(opts, mpi.WithEventTrace(o.TraceEvents))
	}
	if o.Perturb.Enabled() {
		opts = append(opts, mpi.WithPerturb(o.PerturbSeed, o.Perturb))
	}
	return opts
}

// Rank is one rank's share of a run, handed to the application body.
type Rank struct {
	Comm  *mpi.Comm
	Local *distgraph.Local
	// T is the rank's transport; it implements transport.Async or
	// transport.Round according to the model's flavor.
	T transport.Backend

	model transport.Model
	log   *telemetry.RoundLog
	vol   []int64
}

// Record appends one telemetry row at a round boundary: the rank's
// clock, the protocol counters, the live mailbox occupancy and the
// transport's per-destination volume ledger. One nil check when
// telemetry is off.
func (rk *Rank) Record(unresolved, done, req, rej, inv int64) {
	if rk.log == nil {
		return
	}
	rk.log.Append(rk.Comm.Now(), unresolved, done, req, rej, inv, rk.Comm.QueuedBytes(), rk.vol)
}

// Result is the application-independent outcome of a run.
type Result struct {
	// Report carries the runtime's virtual time and traffic ledgers.
	Report *mpi.Report
	// Dist is the distribution used (for process-graph statistics).
	Dist *distgraph.Dist
	// Rounds is the maximum round count any rank body returned.
	Rounds int
	// Messages is the sum of the protocol messages the rank bodies
	// returned.
	Messages int64
	// Telemetry is the merged round-level series (nil unless
	// Options.RoundLog was set).
	Telemetry *telemetry.Series
}

// Body runs one rank's application and returns its round count and
// the protocol messages it sent.
type Body func(rk *Rank) (rounds int, sent int64)

// Run distributes g over opt.Procs ranks in contiguous vertex blocks
// and runs body on every rank, after building the rank's local view,
// round log and transport (sized by deps.MaxPerArc and deps.AggBatch);
// the transport is released when body returns. Errors carry the app
// prefix.
func Run(app string, g *graph.CSR, opt Options, deps transport.Deps, body Body) (*Result, error) {
	if opt.Procs < 1 {
		return nil, fmt.Errorf("%s: Procs = %d", app, opt.Procs)
	}
	d := distgraph.NewBlockDist(g, opt.Procs)
	rounds := make([]int, opt.Procs)
	sent := make([]int64, opt.Procs)
	var logs []*telemetry.RoundLog
	if opt.RoundLog > 0 {
		logs = make([]*telemetry.RoundLog, opt.Procs)
	}
	rep, err := mpi.Run(opt.Procs, func(c *mpi.Comm) error {
		rk := &Rank{Comm: c, Local: d.BuildLocal(c.Rank()), model: opt.Model}
		deps := deps
		deps.Comm, deps.Local = c, rk.Local
		t, err := transport.New(opt.Model, deps)
		if err != nil {
			return fmt.Errorf("%s: %w", app, err)
		}
		rk.T = t
		if logs != nil {
			rk.log = telemetry.NewRoundLog(opt.RoundLog, opt.Procs)
			rk.log.SetTotal(int64(rk.Local.NumOwned()))
			logs[c.Rank()] = rk.log
			// VolumeByDest allocates an O(world size) ledger on first
			// use, so only a recording run asks for it — before the
			// first Send, which it must observe.
			if v, ok := t.(transport.Volumer); ok {
				rk.vol = v.VolumeByDest()
			}
		}
		rounds[c.Rank()], sent[c.Rank()] = body(rk)
		transport.Release(t)
		return nil
	}, opt.mpiOptions()...)
	if err != nil {
		return nil, err
	}
	res := &Result{Report: rep, Dist: d}
	if logs != nil {
		res.Telemetry = telemetry.Merge(logs)
	}
	for r := range rounds {
		res.Rounds = max(res.Rounds, rounds[r])
		res.Messages += sent[r]
	}
	return res, nil
}
