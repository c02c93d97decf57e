package driver

import (
	"repro/internal/mpi"
	"repro/internal/transport"
)

// Protocol is one rank's owner-computes state machine as Loop drives
// it: local work is pushed by Start and by Handle, drained by
// DrainWork, and the run is over once Remaining is zero on every rank.
type Protocol interface {
	// Start runs the initial local phase, before any record arrives.
	Start()
	// Handle consumes one incoming record.
	Handle(ctx, x, y int64)
	// DrainWork runs every local work item queued so far, leaving the
	// queue empty.
	DrainWork()
	// Remaining is this rank's outstanding work: the termination count
	// the loop tests locally (async) or reduces globally (rounds).
	Remaining() int64
	// Record returns the protocol counters of one telemetry row (see
	// Rank.Record). Only called when telemetry is on.
	Record() (unresolved, done, req, rej, inv int64)
}

// Loop drives p to termination over the rank's transport and returns
// the rank's round count. The loop shape follows the model's flavor:
//
//   - FlavorAsync (paper Algorithms 1 and 3): drain arrivals and local
//     work until this rank's own Remaining reaches zero, parking when
//     nothing arrived. As the paper notes (§V-D) the Send-Recv variant
//     needs no global reduction: a rank with nothing outstanding owes
//     nothing to anyone.
//   - FlavorRound (RMA, NCL, NCLI, NCLC): rounds of (exchange, drain,
//     global sum of Remaining), ending when the sum is zero — the extra
//     collective the paper identifies as the cost of uncoordinated
//     exits (§V-D).
//
// Row 0 of the round log is the state after Start; one row follows per
// poll iteration or exchange round. The handler is bound once per run,
// so the steady-state round step allocates nothing.
func (rk *Rank) Loop(p Protocol) int {
	h := transport.Handler(p.Handle)
	p.Start()
	rk.record(p)
	if rk.model.Flavor() == transport.FlavorAsync {
		return rk.asyncLoop(p, rk.T.(transport.Async), h)
	}
	t := rk.T.(transport.Round)
	rounds := 1
	for rk.roundStep(p, t, h) != 0 {
		rounds++
	}
	t.Finish()
	return rounds
}

// record appends p's telemetry row; one nil check when telemetry is off.
func (rk *Rank) record(p Protocol) {
	if rk.log != nil {
		rk.Record(p.Record())
	}
}

// asyncLoop is Loop's FlavorAsync shape.
func (rk *Rank) asyncLoop(p Protocol, t transport.Async, h transport.Handler) int {
	rounds := 0
	for p.Remaining() > 0 {
		progressed := t.Drain(h)
		p.DrainWork()
		rk.record(p)
		if p.Remaining() == 0 {
			break
		}
		if !progressed {
			t.Block()
		}
		rounds++
	}
	// Peers may still depend on records parked in aggregation buffers.
	t.Finish()
	return rounds
}

// roundStep is one FlavorRound round: exchange, drain local work, and
// reduce the outstanding work, returning the global total.
func (rk *Rank) roundStep(p Protocol, t transport.Round, h transport.Handler) int64 {
	t.Exchange(h)
	p.DrainWork()
	total := rk.Comm.AllreduceScalarInt64(mpi.OpSum, p.Remaining())
	rk.record(p)
	return total
}
