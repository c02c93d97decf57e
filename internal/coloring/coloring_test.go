package coloring

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/transport"
)

func opts(p int, m Model) Options {
	return Options{Procs: p, Model: m, Deadline: time.Minute}
}

func TestSerialTriangleNeedsThree(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1}})
	r := Serial(g)
	if err := Verify(g, r); err != nil {
		t.Fatal(err)
	}
	if r.Colors != 3 {
		t.Errorf("triangle colored with %d colors, want 3", r.Colors)
	}
}

func TestSerialBipartite(t *testing.T) {
	// A star is 2-colorable and greedy achieves it.
	b := graph.NewBuilder(6)
	for i := 1; i < 6; i++ {
		b.AddEdge(0, i, 1)
	}
	g := b.Build()
	r := Serial(g)
	if err := Verify(g, r); err != nil {
		t.Fatal(err)
	}
	if r.Colors != 2 {
		t.Errorf("star colored with %d colors, want 2", r.Colors)
	}
}

func TestSerialEmptyAndIsolated(t *testing.T) {
	if r := Serial(graph.NewBuilder(0).Build()); r.Colors != 0 {
		t.Error("empty graph colors != 0")
	}
	r := Serial(graph.NewBuilder(4).Build())
	if r.Colors != 1 {
		t.Errorf("isolated vertices need exactly 1 color, got %d", r.Colors)
	}
}

func TestSerialBoundedByDegreePlusOne(t *testing.T) {
	g := gen.Social(2000, 10, 1)
	r := Serial(g)
	if err := Verify(g, r); err != nil {
		t.Fatal(err)
	}
	if r.Colors > g.MaxDegree()+1 {
		t.Errorf("greedy used %d colors, above Delta+1 = %d", r.Colors, g.MaxDegree()+1)
	}
}

func assertMatchesSerial(t *testing.T, g *graph.CSR, p int, m Model) *ParallelResult {
	t.Helper()
	want := Serial(g)
	got, err := Run(g, opts(p, m))
	if err != nil {
		t.Fatalf("%v p=%d: %v", m, p, err)
	}
	if err := Verify(g, got.Result); err != nil {
		t.Fatalf("%v p=%d: %v", m, p, err)
	}
	for v := range want.Color {
		if got.Color[v] != want.Color[v] {
			t.Fatalf("%v p=%d: color[%d] = %d, serial %d", m, p, v, got.Color[v], want.Color[v])
		}
	}
	return got
}

func TestParallelAllModelsAllFamilies(t *testing.T) {
	families := map[string]*graph.CSR{
		"rgg":    gen.RGG(900, gen.RGGRadiusForDegree(900, 6), 1),
		"rmat":   gen.Graph500(9, 2),
		"sbp":    gen.SBP(700, 10, 8, 0.5, 3),
		"social": gen.Social(800, 8, 4),
		"grid":   gen.Grid2D(15, 18),
	}
	for name, g := range families {
		for _, m := range transport.Models {
			t.Run(name+"/"+m.String(), func(t *testing.T) {
				assertMatchesSerial(t, g, 6, m)
			})
		}
	}
}

func TestParallelTinyAndManyRanks(t *testing.T) {
	tiny := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	for _, m := range transport.Models {
		assertMatchesSerial(t, tiny, 3, m)
		assertMatchesSerial(t, tiny, 1, m)
	}
	g := gen.Social(1500, 8, 5)
	assertMatchesSerial(t, g, 24, transport.ModelNCL)
	assertMatchesSerial(t, g, 24, transport.ModelNSR)
}

func TestMessageBoundOnePerCrossArc(t *testing.T) {
	g := gen.Social(1000, 10, 6)
	const p = 8
	res, err := Run(g, opts(p, transport.ModelNSR))
	if err != nil {
		t.Fatal(err)
	}
	var crossArcs int64
	for r := 0; r < p; r++ {
		crossArcs += res.Report.Stats[r].SendCount
	}
	if res.Messages > g.NumArcs() {
		t.Errorf("messages %d exceed one per cross arc bound %d", res.Messages, g.NumArcs())
	}
}

func TestVerifyCatchesBadColorings(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	if err := Verify(g, &Result{Color: []int{0, 0, 1}, Colors: 2}); err == nil {
		t.Error("adjacent same-color accepted")
	}
	if err := Verify(g, &Result{Color: []int{0, -1, 1}, Colors: 2}); err == nil {
		t.Error("uncolored vertex accepted")
	}
	if err := Verify(g, &Result{Color: []int{0, 1, 0}, Colors: 5}); err == nil {
		t.Error("wrong color count accepted")
	}
}

func TestColoringQuick(t *testing.T) {
	f := func(seed int64, pRaw, mRaw uint8) bool {
		p := int(pRaw%5) + 1
		m := transport.Models[int(mRaw)%len(transport.Models)]
		g := gen.SBP(100, 5, 6, 0.4, seed)
		want := Serial(g)
		got, err := Run(g, opts(p, m))
		if err != nil || Verify(g, got.Result) != nil {
			return false
		}
		for v := range want.Color {
			if got.Color[v] != want.Color[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestColoringModelTimesDiffer(t *testing.T) {
	g := gen.Social(3000, 10, 7)
	times := map[Model]float64{}
	for _, m := range []Model{transport.ModelNSR, transport.ModelRMA, transport.ModelNCL} {
		res, err := Run(g, opts(8, m))
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.MaxVirtualTime <= 0 {
			t.Fatalf("%v: nonpositive time", m)
		}
		times[m] = res.Report.MaxVirtualTime
	}
	// Coloring sends one message per cross arc: aggregation should help
	// here too on a volume-heavy social graph.
	if times[transport.ModelNCL] >= times[transport.ModelNSR] {
		t.Logf("note: NCL (%g) did not beat NSR (%g) on this input; acceptable but unexpected",
			times[transport.ModelNCL], times[transport.ModelNSR])
	}
}
