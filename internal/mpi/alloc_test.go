package mpi

import (
	"testing"
	"time"
)

// Steady-state allocation contracts for the hot path: after warmup the
// pooled-message runtime must complete point-to-point round trips and
// scalar reductions without touching the heap. testing.AllocsPerRun
// calls its body runs+1 times with GOMAXPROCS(1) and counts mallocs
// process-wide, so the measuring rank's peer executes exactly runs+1
// matching iterations (themselves allocation-free in steady state).

func TestRoundTripZeroAlloc(t *testing.T) {
	const runs = 100
	_, err := RunChecked(2, func(c *Comm) error {
		sbuf := [3]int64{1, 2, 3}
		var rbuf [3]int64
		peer := 1 - c.Rank()
		roundTrip := func() {
			c.Isend(peer, 0, sbuf[:])
			c.RecvInto(peer, 0, rbuf[:])
		}
		// Warm the message pool and the mailbox index rings.
		for i := 0; i < 16; i++ {
			roundTrip()
		}
		if c.Rank() == 0 {
			if avg := testing.AllocsPerRun(runs, roundTrip); avg != 0 {
				t.Errorf("3-word Isend/RecvInto round trip: %.2f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				roundTrip()
			}
		}
		return nil
	}, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceScalarZeroAlloc(t *testing.T) {
	const runs = 100
	_, err := RunChecked(2, func(c *Comm) error {
		reduce := func() {
			if got := c.AllreduceScalarInt64(OpSum, int64(c.Rank()+1)); got != 3 {
				t.Errorf("scalar allreduce = %d, want 3", got)
			}
		}
		for i := 0; i < 4; i++ {
			reduce()
		}
		if c.Rank() == 0 {
			if avg := testing.AllocsPerRun(runs, reduce); avg != 0 {
				t.Errorf("AllreduceScalarInt64: %.2f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				reduce()
			}
		}
		return nil
	}, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

// TestIprobeAnySourceZeroAlloc pins the wildcard polling loop of the
// Send-Recv driver: with 63 sources holding queued traffic, an
// Iprobe(AnySource, AnyTag) hit followed by the exact RecvInto it
// names must not allocate. Every message is queued before the
// measurement, so the loop never misses and senders do not run inside
// it.
func TestIprobeAnySourceZeroAlloc(t *testing.T) {
	const procs, runs = 64, 125
	const warm = procs - 1
	const perSender = (warm + runs + 1) / (procs - 1)
	_, err := RunChecked(procs, func(c *Comm) error {
		if c.Rank() != 0 {
			for k := 0; k < perSender; k++ {
				c.Isend(0, k%3, []int64{int64(c.Rank()), int64(k), 0})
			}
			c.Barrier()
			return nil
		}
		c.Barrier()
		var buf [3]int64
		probeRecv := func() {
			ok, st := c.Iprobe(AnySource, AnyTag)
			if !ok {
				t.Errorf("Iprobe missed with %d messages queued", c.PendingMessages())
				return
			}
			c.RecvInto(st.Source, st.Tag, buf[:])
		}
		for i := 0; i < warm; i++ {
			probeRecv()
		}
		if avg := testing.AllocsPerRun(runs, probeRecv); avg != 0 {
			t.Errorf("Iprobe(AnySource, AnyTag) + RecvInto over %d sources: %.2f allocs/op, want 0", procs-1, avg)
		}
		return nil
	}, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

// TestNbrRoundZeroAlloc pins the per-arc slot path of the neighborhood
// collectives: a count exchange, a blocking alltoallv and a persistent
// Start/WaitInto round, with chunks past inlineWords, must not allocate
// once the arcs' buffers have circulated. Every rank runs the same
// number of rounds, since each round is collective over the ring.
func TestNbrRoundZeroAlloc(t *testing.T) {
	const procs, runs = 4, 100
	_, err := RunChecked(procs, func(c *Comm) error {
		r, n := c.Rank(), c.Size()
		topo := c.CreateGraphTopo([]int{(r + 1) % n, (r - 1 + n) % n})
		pn := topo.NeighborAlltoallvInit()
		counts, incoming := make([]int64, 2), make([]int64, 2)
		send := [][]int64{make([]int64, 9), make([]int64, 6)}
		recv := make([][]int64, 2)
		round := func() {
			counts[0], counts[1] = int64(len(send[0])), int64(len(send[1]))
			incoming = topo.NeighborAlltoallInt64Into(counts, 1, incoming)
			recv = topo.NeighborAlltoallvInt64Into(send, recv)
			pn.Start(send)
			recv = pn.WaitInto(recv)
		}
		for i := 0; i < 4; i++ {
			round()
		}
		if r == 0 {
			if avg := testing.AllocsPerRun(runs, round); avg != 0 {
				t.Errorf("neighborhood round: %.2f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				round()
			}
		}
		return nil
	}, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}
