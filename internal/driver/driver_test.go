package driver

import (
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/transport"
)

// ping is a Protocol that never terminates on its own: every drain
// sends one record across the single cross edge of a two-rank path, so
// every exchange delivers exactly one.
type ping struct {
	rk    *Rank
	x, y  int64
	peer  int
	recvd int64
}

func newPing(rk *Rank) *ping {
	// The cross edge of gen.Path(8) split over two ranks is {3,4}; x
	// must be owned by the destination.
	p := &ping{rk: rk, x: 4, y: 3, peer: 1}
	if rk.Comm.Rank() == 1 {
		p.x, p.y, p.peer = 3, 4, 0
	}
	return p
}

func (p *ping) Start()                 { p.DrainWork() }
func (p *ping) Handle(ctx, x, y int64) { p.recvd++ }
func (p *ping) DrainWork()             { p.rk.T.Send(p.peer, 1, p.x, p.y) }
func (p *ping) Remaining() int64       { return 1 }
func (p *ping) Record() (unresolved, done, req, rej, inv int64) {
	return 1, p.recvd, p.recvd, 0, 0
}

// TestRoundStepZeroAlloc pins the steady-state cost of the shared round
// loop over NCL, telemetry included: exchange, drain, counting
// reduction and round-log append allocate nothing. Rank 1 runs the same
// number of steps unmeasured.
func TestRoundStepZeroAlloc(t *testing.T) {
	const runs = 50
	opt := Options{Procs: 2, Model: transport.ModelNCL, Deadline: 30 * time.Second, RoundLog: 4}
	_, err := Run("test", gen.Path(8), opt, transport.Deps{MaxPerArc: 8}, func(rk *Rank) (int, int64) {
		p := newPing(rk)
		h := transport.Handler(p.Handle)
		tr := rk.T.(transport.Round)
		p.Start()
		step := func() {
			if total := rk.roundStep(p, tr, h); total != 2 {
				t.Errorf("round total %d, want 2", total)
			}
		}
		for i := 0; i < 8; i++ {
			step() // warm buffers, rings and pools
		}
		if rk.Comm.Rank() == 0 {
			if avg := testing.AllocsPerRun(runs, step); avg != 0 {
				t.Errorf("driver round step over NCL: %.2f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				step()
			}
		}
		tr.Finish()
		return 0, p.recvd
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunTallies checks the per-rank reduction: Rounds is the maximum
// and Messages the sum of what the bodies return, and telemetry is
// merged only when a round log was requested.
func TestRunTallies(t *testing.T) {
	g := gen.Path(12)
	for _, roundLog := range []int{0, 8} {
		opt := Options{Procs: 3, Model: transport.ModelNSR, Deadline: 30 * time.Second, RoundLog: roundLog}
		res, err := Run("test", g, opt, transport.Deps{}, func(rk *Rank) (int, int64) {
			rk.Record(0, 0, 0, 0, 0)
			return rk.Comm.Rank(), int64(rk.Comm.Rank() + 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 2 || res.Messages != 6 {
			t.Errorf("RoundLog %d: Rounds %d Messages %d, want 2 and 6", roundLog, res.Rounds, res.Messages)
		}
		if (res.Telemetry != nil) != (roundLog > 0) {
			t.Errorf("RoundLog %d: telemetry %v", roundLog, res.Telemetry)
		}
		if res.Telemetry != nil && (res.Telemetry.Procs != 3 || res.Telemetry.Rounds() != 1) {
			t.Errorf("telemetry: %d ranks, %d rounds; want 3 and 1", res.Telemetry.Procs, res.Telemetry.Rounds())
		}
		if res.Dist == nil || res.Report == nil || res.Report.Procs != 3 {
			t.Errorf("missing distribution or report")
		}
	}
}

// TestRunErrorsCarryApp checks both failure paths name the application:
// a bad rank count and a transport the model cannot build.
func TestRunErrorsCarryApp(t *testing.T) {
	body := func(rk *Rank) (int, int64) { return 0, 0 }
	if _, err := Run("myapp", gen.Path(4), Options{Procs: 0}, transport.Deps{}, body); err == nil || !strings.HasPrefix(err.Error(), "myapp: Procs = 0") {
		t.Errorf("Procs 0: err = %v", err)
	}
	// The round models need MaxPerArc > 0.
	opt := Options{Procs: 2, Model: transport.ModelNCL, Deadline: 30 * time.Second}
	if _, err := Run("myapp", gen.Path(4), opt, transport.Deps{}, body); err == nil || !strings.Contains(err.Error(), "myapp: transport") {
		t.Errorf("MaxPerArc 0: err = %v", err)
	}
}
