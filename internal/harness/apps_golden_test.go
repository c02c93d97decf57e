package harness

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// appsGoldenProfiles are the perturbation profiles the application
// golden runs under: unperturbed first, then the ones the
// neighborhood-collective clock golden uses.
var appsGoldenProfiles = []sched.Profile{
	{},
	{Ties: true},
	{Jitter: 1},
	{Slowdown: 0.5},
	{ProbeMiss: 0.5},
	sched.Full,
}

// appsGoldenProcs is the world size of every application golden run.
const appsGoldenProcs = 6

// appsGoldenRun is the part of one application run the golden pins.
type appsGoldenRun struct {
	result    []int // mate, color or level vector
	rounds    int   // driver rounds (BFS: levels)
	messages  int64 // protocol messages (BFS: transmitted messages)
	rep       *mpi.Report
	telemetry *telemetry.Series
}

// appsGoldenPins selects which parts of a run are schedule-invariant
// enough to pin.
type appsGoldenPins struct {
	digest, rounds, messages, clocks bool
}

// pinAll is what every round-flavor model (RMA, NCL, NCLI, NCLC) pins:
// these exchange in lock step, so their whole virtual timeline is a
// pure function of the seed.
var pinAll = appsGoldenPins{digest: true, rounds: true, messages: true, clocks: true}

// digestInts is the FNV-64a digest of an int vector.
func digestInts(v []int) uint64 {
	h := fnv.New64a()
	for _, x := range v {
		fmt.Fprintf(h, "%d,", x)
	}
	return h.Sum64()
}

// digestSeries is the FNV-64a digest of a merged telemetry series, with
// floats in their shortest exact form. MaxQueueBytes is left out: it
// samples mailbox occupancy, which follows how far the senders have
// physically run when a rank reaches its round boundary.
func digestSeries(s *telemetry.Series) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d\n", s.Procs, s.Total, s.Drops)
	for _, p := range s.Points {
		fmt.Fprintf(h, "%d %v %d %d %v %d %d %d %d %d\n", p.Round, p.Time, p.Unresolved, p.Done, p.DoneFrac, p.Req, p.Rej, p.Inv, p.Bytes, p.MaxLinkBytes)
	}
	return h.Sum64()
}

// appsGoldenDump runs every application on one small SBP graph at six
// ranks under every model and perturbation profile and renders what the
// golden pins. The round-flavor models pin everything (pinAll). On the
// async models (NSR, MBP, NSRA) which arrivals a poll sees follows the
// physical interleaving of the rank goroutines, so only what proved
// stable over repeated runs is pinned:
//   - half-approx matching: the mate vector (the protocol's result is
//     schedule-invariant; its rounds and message counts are not);
//   - coloring: the color vector and the announcement count;
//   - BFS: the level vector, the level count and the message count;
//   - the maximal engine's forced-rounds NSR baseline: nothing — the
//     matching it picks depends on arrival order even behind the round
//     barrier, so the test checks it is maximal instead.
//
// The maximal engine's barrier-free async path is schedule-dependent by
// design and is not run here.
func appsGoldenDump(t *testing.T) []byte {
	t.Helper()
	g := gen.SBP(1200, 8, 12, 0.55, 7)
	var buf bytes.Buffer
	emit := func(app string, m transport.Model, prof sched.Profile, r appsGoldenRun, async appsGoldenPins) {
		pin := pinAll
		if m.Flavor() == transport.FlavorAsync {
			pin = async
		}
		fmt.Fprintf(&buf, "%s %v profile %v", app, m, prof)
		if pin.digest {
			fmt.Fprintf(&buf, " digest %016x", digestInts(r.result))
		}
		if pin.rounds {
			fmt.Fprintf(&buf, " rounds %d", r.rounds)
		}
		if pin.messages {
			fmt.Fprintf(&buf, " messages %d", r.messages)
		}
		if pin.clocks {
			fmt.Fprintf(&buf, " telemetry %016x", digestSeries(r.telemetry))
		}
		buf.WriteByte('\n')
		if pin.clocks {
			for rank, now := range r.rep.FinalTimes {
				fmt.Fprintf(&buf, "  rank %d clock %016x\n", rank, math.Float64bits(now))
			}
		}
	}
	for _, prof := range appsGoldenProfiles {
		for _, m := range matching.Models {
			mo := matching.Options{Procs: appsGoldenProcs, Model: m, Deadline: time.Minute, RoundLog: 1 << 12, Perturb: prof, PerturbSeed: 0x5eed}
			res, err := matching.Run(g, mo)
			if err != nil {
				t.Fatalf("halfapprox %v %v: %v", m, prof, err)
			}
			emit("halfapprox", m, prof, appsGoldenRun{res.Mate, res.Rounds, res.Messages, res.Report, res.Telemetry},
				appsGoldenPins{digest: true})

			if m.Flavor() == transport.FlavorRound || m == matching.NSR {
				mo.Engine, mo.ForceRounds = matching.EngineMaximal, true
				res, err = matching.Run(g, mo)
				if err != nil {
					t.Fatalf("maximal %v %v: %v", m, prof, err)
				}
				if err := matching.VerifyMaximal(g, res.Result); err != nil {
					t.Fatalf("maximal %v %v: %v", m, prof, err)
				}
				emit("maximal-rounds", m, prof, appsGoldenRun{res.Mate, res.Rounds, res.Messages, res.Report, res.Telemetry},
					appsGoldenPins{})
			}

			cres, err := coloring.Run(g, coloring.Options{Procs: appsGoldenProcs, Model: m, Deadline: time.Minute, RoundLog: 1 << 12, Perturb: prof, PerturbSeed: 0x5eed})
			if err != nil {
				t.Fatalf("coloring %v %v: %v", m, prof, err)
			}
			emit("coloring", m, prof, appsGoldenRun{cres.Color, cres.Rounds, cres.Messages, cres.Report, cres.Telemetry},
				appsGoldenPins{digest: true, messages: true})

			bres, err := bfs.Run(g, 0, bfs.Options{Procs: appsGoldenProcs, Model: m, Deadline: time.Minute, RoundLog: 1 << 12, Perturb: prof, PerturbSeed: 0x5eed})
			if err != nil {
				t.Fatalf("bfs %v %v: %v", m, prof, err)
			}
			emit("bfs", m, prof, appsGoldenRun{bres.Level, bres.Levels, bres.Report.Totals().Msgs, bres.Report, bres.Telemetry},
				appsGoldenPins{digest: true, rounds: true, messages: true})
		}
	}
	return buf.Bytes()
}

// TestAppsClockGolden pins the results, round and message counts,
// per-rank virtual clocks and telemetry of the four application entry
// points (half-approx and maximal matching, Jones-Plassmann coloring,
// BFS) to fixed values, so a refactor of the run scaffolding they share
// cannot move virtual time unnoticed. Regenerate with -update only for a
// deliberate change of the cost model or a protocol.
func TestAppsClockGolden(t *testing.T) {
	got := appsGoldenDump(t)
	golden := filepath.Join("testdata", "apps_clock.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("application clocks differ from %s (run with -update to regenerate)\n%s", golden, goldenFirstDiff(got, want))
	}
}

// goldenFirstDiff renders the first differing line of two dumps.
func goldenFirstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(identical)"
}
