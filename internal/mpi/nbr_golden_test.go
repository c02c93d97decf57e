package mpi

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// nbrGoldenAdj is an irregular symmetric process graph on six ranks.
// Neighbor lists are deliberately unsorted, so a rank's position in a
// peer's list differs from the peer's position in its own.
var nbrGoldenAdj = [][]int{
	{5, 1, 2},
	{2, 0, 3},
	{4, 0, 1},
	{1, 5, 4},
	{3, 2, 5},
	{0, 4, 3},
}

// nbrGoldenBody drives every neighborhood-collective entry point: the
// blocking alltoall and alltoallv, a nonblocking request completed by
// Test polling and one completed by Wait, a blocking call overtaking an
// in-flight request on the same topology, and persistent Start/Wait
// rounds. The world topology uses the pairwise symmetry handshake when
// topoVerifyDenseLimit is below six; the three-rank Split topologies
// always use the adjacency allgather. Every received payload is checked.
func nbrGoldenBody(c *Comm) error {
	r := c.Rank()
	topo := c.CreateGraphTopo(nbrGoldenAdj[r])
	sub := c.Split(r%2, r)
	sr := sub.Rank()
	ring := sub.CreateGraphTopo([]int{(sr + 1) % 3, (sr + 2) % 3})
	nbrs, ringNbrs := topo.Neighbors(), ring.Neighbors()

	// payload is what rank src sends on call k to neighbor dst: sizes
	// 0..9 words, so some chunks cross inlineWords.
	payload := func(src, dst, k int) []int64 {
		out := make([]int64, (src*7+dst*5+k*3)%10)
		for i := range out {
			out[i] = int64(src<<20 | dst<<12 | k<<4 | i)
		}
		return out
	}
	sendv := func(me int, nb []int, k int) [][]int64 {
		s := make([][]int64, len(nb))
		for i, d := range nb {
			s[i] = payload(me, d, k)
		}
		return s
	}
	check := func(what string, me int, nb []int, k int, got [][]int64) error {
		for i, src := range nb {
			if want := payload(src, me, k); fmt.Sprint(got[i]) != fmt.Sprint(want) {
				return fmt.Errorf("rank %d %s call %d from %d: got %v, want %v", r, what, k, src, got[i], want)
			}
		}
		return nil
	}
	fixed := func(k int) []int64 {
		s := make([]int64, 2*len(nbrs))
		for i, d := range nbrs {
			s[2*i], s[2*i+1] = int64(r*100+d), int64(k)
		}
		return s
	}
	checkFixed := func(k int, got []int64) error {
		for i, src := range nbrs {
			if got[2*i] != int64(src*100+r) || got[2*i+1] != int64(k) {
				return fmt.Errorf("rank %d alltoall call %d from %d: got %v", r, k, src, got[2*i:2*i+2])
			}
		}
		return nil
	}

	c.Compute(float64(10 * (r + 1)))
	if err := checkFixed(0, topo.NeighborAlltoallInt64(fixed(0), 2)); err != nil {
		return err
	}
	if err := check("alltoallv", r, nbrs, 1, topo.NeighborAlltoallvInt64(sendv(r, nbrs, 1))); err != nil {
		return err
	}
	if err := check("ring alltoallv", sr, ringNbrs, 2, ring.NeighborAlltoallvInt64(sendv(sr, ringNbrs, 2))); err != nil {
		return err
	}

	// A blocking exchange overtakes an in-flight request on the same
	// topology; the barrier then makes every chunk physically present,
	// so the number of Test polls depends only on forced misses.
	req := topo.INeighborAlltoallvInt64(sendv(r, nbrs, 3))
	c.Compute(float64(5 * (6 - r)))
	if err := checkFixed(4, topo.NeighborAlltoallInt64(fixed(4), 2)); err != nil {
		return err
	}
	c.Barrier()
	var got [][]int64
	for ok := false; !ok; got, ok = req.Test() {
	}
	if err := check("ialltoallv/test", r, nbrs, 3, got); err != nil {
		return err
	}
	req = topo.INeighborAlltoallvInt64(sendv(r, nbrs, 5))
	c.Compute(float64(3 * r))
	if err := check("ialltoallv/wait", r, nbrs, 5, req.Wait()); err != nil {
		return err
	}

	pn := topo.NeighborAlltoallvInit()
	pr := ring.NeighborAlltoallvInit()
	var recv, ringRecv [][]int64
	for k := 6; k < 9; k++ {
		pn.Start(sendv(r, nbrs, k))
		pr.Start(sendv(sr, ringNbrs, k))
		c.Compute(float64(k * (r + 1)))
		recv = pn.WaitInto(recv)
		if err := check("persistent", r, nbrs, k, recv); err != nil {
			return err
		}
		ringRecv = pr.WaitInto(ringRecv)
		if err := check("ring persistent", sr, ringNbrs, k, ringRecv); err != nil {
			return err
		}
	}
	return nil
}

// nbrGoldenDump runs nbrGoldenBody under every perturbation profile and
// renders each rank's final clock and its neighborhood and wait events,
// with floats in their shortest exact form.
func nbrGoldenDump(t *testing.T, mode SchedMode) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, prof := range perturbProfiles {
		opts := []Option{WithScheduler(mode), WithEventTrace(256), WithDeadline(30 * time.Second)}
		if prof.Enabled() {
			opts = append(opts, WithPerturb(0x5eed, prof))
		}
		rep, err := Run(len(nbrGoldenAdj), nbrGoldenBody, opts...)
		if err != nil {
			t.Fatalf("%v: %v", prof, err)
		}
		fmt.Fprintf(&buf, "profile %v\n", prof)
		for r, now := range rep.FinalTimes {
			fmt.Fprintf(&buf, "rank %d clock %v\n", r, now)
			for _, e := range rep.Events(r) {
				switch e.Kind {
				case EvNbrColl, EvNbrStart, EvNbrWait, EvWait:
					fmt.Fprintf(&buf, "  %v %v peer=%d tag=%d bytes=%d start=%v end=%v cause=%v\n",
						e.Kind, e.Class, e.Peer, e.Tag, e.Bytes, e.Start, e.End, e.CauseT)
				}
			}
			if d := rep.EventDrops(r); d != 0 {
				t.Fatalf("%v: rank %d dropped %d events", prof, r, d)
			}
		}
	}
	return buf.Bytes()
}

// TestNbrClockGolden pins the virtual clock of the neighborhood
// collectives to a fixed value, under every perturbation profile and
// both scheduler modes, on both the allgather and the handshake
// topology paths. Regenerate with -update only for a deliberate change
// of the cost model.
func TestNbrClockGolden(t *testing.T) {
	defer func(old int) { topoVerifyDenseLimit = old }(topoVerifyDenseLimit)
	topoVerifyDenseLimit = 4

	got := nbrGoldenDump(t, SchedDirect)
	golden := filepath.Join("testdata", "nbr_clock.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("neighborhood clocks differ from %s (run with -update to regenerate)\n%s", golden, firstDiff(got, want))
	}
	if pooled := nbrGoldenDump(t, SchedWorkers); !bytes.Equal(pooled, got) {
		t.Errorf("pooled scheduler differs from direct:\n%s", firstDiff(pooled, got))
	}
}

// firstDiff renders the first differing line of two dumps.
func firstDiff(got, want []byte) string {
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
