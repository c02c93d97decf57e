package mpi

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

// White-box tests for the bucketed mailbox: arrival-order selection,
// per-source FIFO, dual-index lazy deletion under struct pooling, and
// post-poison stability. These pin down the invariants the rewrite must
// preserve (DESIGN §7): matching selects the earliest virtual arrival
// regardless of physical enqueue order, and messages from one source
// never overtake each other.

// pushAt fabricates a user-level world message with an explicit virtual
// arrival time and pushes it, bypassing a Comm (payload = seq for
// identification).
func pushAt(mb *mailbox, src, tag int, arrive float64, seq int64) {
	m := newMessage(src, tag, 0, []int64{seq})
	m.arrive = arrive
	mb.push(m)
}

// drainAll dequeues every user message via AnySource/AnyTag wildcards in
// match order.
func drainAll(mb *mailbox) []*message {
	var out []*message
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		m := mb.matchUserLocked(AnySource, AnyTag, 0, true, 0)
		if m == nil {
			return out
		}
		out = append(out, m)
	}
}

// TestMailboxEarliestArrivalOutOfOrderEnqueue is the regression the old
// flat-slice mailbox solved by linear scan: goroutine scheduling pushes a
// late-stamped message physically before an early-stamped one, and the
// receiver must still see them in virtual-arrival order.
func TestMailboxEarliestArrivalOutOfOrderEnqueue(t *testing.T) {
	mb := newMailbox(4)
	// Physical push order deliberately scrambles virtual arrivals across
	// two sources; per-source stamps stay monotone (senders' clocks are).
	pushAt(mb, 1, 7, 50, 0) // src 1: 50, 60
	pushAt(mb, 0, 7, 10, 1) // src 0: 10, 55
	pushAt(mb, 1, 7, 60, 2)
	pushAt(mb, 0, 7, 55, 3)

	wantArrive := []float64{10, 50, 55, 60}
	wantSrc := []int{0, 1, 0, 1}
	got := drainAll(mb)
	if len(got) != 4 {
		t.Fatalf("drained %d messages, want 4", len(got))
	}
	for i, m := range got {
		if m.arrive != wantArrive[i] || m.src != wantSrc[i] {
			t.Errorf("match %d: (src %d, arrive %g), want (src %d, arrive %g)",
				i, m.src, m.arrive, wantSrc[i], wantArrive[i])
		}
		m.release()
	}
}

// TestMailboxOrderProperty drives the mailbox with randomized interleaved
// pushes (per-source monotone stamps, as the runtime guarantees) and
// checks the two delivery invariants on the wildcard drain: globally
// nondecreasing (arrive, src) order, and per-source FIFO.
func TestMailboxOrderProperty(t *testing.T) {
	const nSrc = 4
	prop := func(deltas []uint8, srcs []uint8) bool {
		mb := newMailbox(nSrc)
		clock := [nSrc]float64{}
		count := [nSrc]int64{}
		n := min(len(deltas), len(srcs))
		for i := 0; i < n; i++ {
			s := int(srcs[i]) % nSrc
			clock[s] += float64(deltas[i]) // monotone per source (may tie)
			pushAt(mb, s, 3, clock[s], count[s])
			count[s]++
		}
		got := drainAll(mb)
		if len(got) != n {
			return false
		}
		var next [nSrc]int64
		for i, m := range got {
			if i > 0 {
				p := got[i-1]
				if m.arrive < p.arrive {
					return false // later match with earlier arrival
				}
			}
			if m.data[0] != next[m.src] {
				return false // per-source FIFO violated
			}
			next[m.src]++
			m.release()
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// perturbProfiles enumerates every perturbation profile class (plus the
// all-on and all-off combinations) for the schedule-invariance property
// tests below.
var perturbProfiles = []sched.Profile{
	{},
	{Ties: true},
	{Jitter: 1},
	{Slowdown: 0.5},
	{ProbeMiss: 0.5},
	sched.Full,
}

// TestMailboxPerturbedOrderProperty is the satellite property test for
// perturbed schedules: under EVERY perturbation profile, wildcard
// (AnySource/AnyTag) draining must still deliver each source's messages
// in FIFO order and must lose nothing — permutation is only ever legal
// across sources. With jitter active per-source arrival stamps are no
// longer monotone (the push order is the sender's send order, which is
// what MPI's non-overtaking clause is about), so unlike the unperturbed
// property test this one asserts FIFO by sequence number only.
func TestMailboxPerturbedOrderProperty(t *testing.T) {
	const nSrc = 4
	for _, prof := range perturbProfiles {
		prof := prof
		t.Run(prof.String(), func(t *testing.T) {
			pt := sched.New(0xc0ffee, sched.Profile{Ties: prof.Ties}, 1)
			jit := sched.New(0xbeef, prof, nSrc)
			prop := func(deltas []uint8, srcs []uint8) bool {
				mb := newMailbox(nSrc)
				if pt != nil {
					mb.pert = pt.Rank(0)
				}
				clock := [nSrc]float64{}
				count := [nSrc]int64{}
				n := min(len(deltas), len(srcs))
				for i := 0; i < n; i++ {
					s := int(srcs[i]) % nSrc
					// The sender's clock advances monotonically; the stamped
					// latency is perturbed per profile, so with jitter the
					// arrival stamps within one source can reorder.
					clock[s] += float64(deltas[i])
					arrive := clock[s]
					if jit != nil {
						arrive = clock[s] + jit.Rank(s).Latency(1+float64(deltas[i]))
					}
					pushAt(mb, s, 3, arrive, count[s])
					count[s]++
				}
				got := drainAll(mb)
				if len(got) != n {
					return false
				}
				var next [nSrc]int64
				for _, m := range got {
					if m.data[0] != next[m.src] {
						return false // per-source FIFO violated
					}
					next[m.src]++
					m.release()
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMailboxPerturbedProbeRecvConsistency pins the Drain pattern under
// tie-permutation: whatever message a perturbed wildcard probe reports,
// the follow-up exact (src, tag) match must return that same message —
// a permuted pick is always a bucket front, hence also the front of its
// tag index.
func TestMailboxPerturbedProbeRecvConsistency(t *testing.T) {
	pt := sched.New(42, sched.Profile{Ties: true}, 1)
	mb := newMailbox(4)
	mb.pert = pt.Rank(0)
	seq := int64(0)
	for s := 0; s < 4; s++ {
		for k := 0; k < 3; k++ {
			pushAt(mb, s, 5+k, float64(10+k), seq) // equal stamps across sources: maximal tie sets
			seq++
		}
	}
	for i := 0; i < int(seq); i++ {
		mb.mu.Lock()
		probe := mb.matchUserLocked(AnySource, AnyTag, 0, false, 100)
		if probe == nil {
			mb.mu.Unlock()
			t.Fatalf("probe %d found nothing with %d messages left", i, int(seq)-i)
		}
		got := mb.matchUserLocked(probe.src, probe.tag, 0, true, 100)
		mb.mu.Unlock()
		if got != probe {
			t.Fatalf("probe %d saw src %d tag %d but exact match returned a different message", i, probe.src, probe.tag)
		}
		got.release()
	}
}

// TestMailboxTiePermutationActuallyPermutes guards against the hooks
// silently becoming dead code: with several equal-stamp fronts and Ties
// enabled, different seeds must produce more than one wildcard
// selection order.
func TestMailboxTiePermutationActuallyPermutes(t *testing.T) {
	orders := map[string]bool{}
	for seed := uint64(0); seed < 16; seed++ {
		pt := sched.New(seed, sched.Profile{Ties: true}, 1)
		mb := newMailbox(4)
		mb.pert = pt.Rank(0)
		for s := 0; s < 4; s++ {
			pushAt(mb, s, 1, 10, int64(s)) // all tied
		}
		order := ""
		for _, m := range drainAll(mb) {
			order += fmt.Sprint(m.src)
			m.release()
		}
		orders[order] = true
	}
	if len(orders) < 2 {
		t.Fatalf("16 seeds produced only the selection order(s) %v; tie permutation is inert", orders)
	}
}

// TestMailboxStaleTagEntrySurvivesReuse pins the interaction of lazy
// dual-index deletion with struct pooling: a message dequeued through the
// arrival FIFO leaves a stale pointer in its tag FIFO, and once the
// struct is recycled for an unrelated send the stale entry must stay
// dead — matching it would steal a message queued elsewhere and deadlock
// the rightful receiver. The generation check in qent is what enforces
// this.
func TestMailboxStaleTagEntrySurvivesReuse(t *testing.T) {
	a, b := newMailbox(2), newMailbox(2)
	pushAt(a, 0, 1, 10, 100)
	pushAt(a, 0, 2, 20, 200) // keeps bucket 0 of a live after the take

	// Dequeue the tag-1 message through the wildcard (arrival-FIFO) path;
	// its tags[{0,1}] queue now holds a stale entry.
	a.mu.Lock()
	m := a.matchUserLocked(AnySource, AnyTag, 0, true, 0)
	a.mu.Unlock()
	if m == nil || m.tag != 1 {
		t.Fatalf("wildcard match = %+v, want the tag-1 message", m)
	}

	// Recycle the struct the way release+newMessage would when the pool
	// hands the same struct back, and enqueue it on a different mailbox
	// with the same source and tag.
	m.release()
	m2 := newMessage(0, 1, 0, []int64{300})
	m2.arrive = 5
	b.push(m2)

	// The stale entry in a must not resurrect, even if the recycled
	// struct is the one it points at and looks live again.
	a.mu.Lock()
	stale := a.matchUserLocked(0, 1, 0, true, 0)
	a.mu.Unlock()
	if stale != nil {
		t.Fatalf("mailbox a matched a recycled message: src %d tag %d data %v", stale.src, stale.tag, stale.data)
	}
	b.mu.Lock()
	got := b.matchUserLocked(0, 1, 0, true, 0)
	b.mu.Unlock()
	if got == nil || got.data[0] != 300 {
		t.Fatalf("mailbox b lost its message: %+v", got)
	}
}

// TestMailboxExactTagMatchesWildcardView: Iprobe(AnySource) reports a
// message's (src, tag); the follow-up exact Recv must find the same
// message. This is the transport Drain pattern, and it exercises the tag
// index against the arrival index.
func TestMailboxExactTagMatchesWildcardView(t *testing.T) {
	mb := newMailbox(3)
	pushAt(mb, 2, 9, 30, 0)
	pushAt(mb, 1, 4, 40, 1)
	for i := 0; i < 2; i++ {
		mb.mu.Lock()
		probe := mb.matchUserLocked(AnySource, AnyTag, 0, false, 0)
		if probe == nil {
			mb.mu.Unlock()
			t.Fatalf("probe %d found nothing", i)
		}
		got := mb.matchUserLocked(probe.src, probe.tag, 0, true, 0)
		mb.mu.Unlock()
		if got != probe {
			t.Fatalf("probe %d saw %p (src %d tag %d) but exact match returned %p", i, probe, probe.src, probe.tag, got)
		}
		got.release()
	}
}

// TestMailboxPoisonedPushNoOp: after poison, push must drop the message
// without touching the queues or the eager-buffer accounting, so the
// high-water snapshot a failed run reports is stable no matter how late
// the surviving senders race.
func TestMailboxPoisonedPushNoOp(t *testing.T) {
	mb := newMailbox(2)
	pushAt(mb, 0, 1, 1, 0) // 8 bytes queued
	if hw := mb.highWater(); hw != 8 {
		t.Fatalf("high-water before poison = %d, want 8", hw)
	}
	mb.poison()
	pushAt(mb, 1, 1, 2, 1)
	pushAt(mb, 1, 1, 3, 2)
	if hw := mb.highWater(); hw != 8 {
		t.Errorf("high-water moved after poison: %d, want 8", hw)
	}
	if n := mb.pendingUser(); n != 1 {
		t.Errorf("pending after poisoned pushes = %d, want 1", n)
	}
	mb.mu.Lock()
	m := mb.matchUserLocked(AnySource, AnyTag, 0, true, 0)
	mb.mu.Unlock()
	if m == nil || m.data[0] != 0 {
		t.Errorf("pre-poison message lost: %+v", m)
	}
}

// TestMailboxDenseSparseCrossover pins the bucket-storage crossover at
// denseSrcLimit: a world of exactly denseSrcLimit ranks uses the dense
// pointer table, one rank more uses the scan/map path — and matching
// semantics (bucket resolution for edge sources, per-source FIFO,
// AnySource ties breaking toward the lower source) are identical on
// both sides of the threshold.
func TestMailboxDenseSparseCrossover(t *testing.T) {
	for _, n := range []int{denseSrcLimit, denseSrcLimit + 1} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			mb := newMailbox(n)
			wantDense := n <= denseSrcLimit
			if gotDense := mb.dense != nil; gotDense != wantDense {
				t.Fatalf("n=%d: dense table present=%v, want %v", n, gotDense, wantDense)
			}
			if wantDense && len(mb.dense) != n {
				t.Fatalf("dense table len %d, want %d", len(mb.dense), n)
			}
			// Sources at both edges of the id space, plus a middle one.
			lo, mid, hi := 0, n/2, n-1
			pushAt(mb, hi, 7, 30, 0) // ties at arrive=30 with mid: lower src wins
			pushAt(mb, lo, 7, 40, 1)
			pushAt(mb, mid, 7, 30, 2)
			pushAt(mb, lo, 7, 41, 3) // FIFO behind lo's first
			for _, src := range []int{lo, mid, hi} {
				if mb.peek(int32(src)) == nil {
					t.Fatalf("n=%d: bucket for src %d did not resolve", n, src)
				}
			}
			if b := mb.peek(int32(mid + 1)); b != nil {
				t.Fatalf("n=%d: phantom bucket for silent src %d", n, mid+1)
			}
			got := drainAll(mb)
			wantSrc := []int{mid, hi, lo, lo}
			wantSeq := []int64{2, 0, 1, 3}
			if len(got) != len(wantSrc) {
				t.Fatalf("drained %d messages, want %d", len(got), len(wantSrc))
			}
			for i, m := range got {
				if m.src != wantSrc[i] || m.data[0] != wantSeq[i] {
					t.Errorf("n=%d match %d: (src %d, seq %d), want (src %d, seq %d)",
						n, i, m.src, m.data[0], wantSrc[i], wantSeq[i])
				}
				m.release()
			}
		})
	}
}

// TestMailboxSparseMapSpill drives a large-world mailbox past
// bucketScanLimit distinct sources: below the limit buckets are found by
// scanning the used list (no map exists), above it the map is installed
// once and every bucket — old and new — still resolves.
func TestMailboxSparseMapSpill(t *testing.T) {
	n := denseSrcLimit + 100
	mb := newMailbox(n)
	nsrc := bucketScanLimit + 4
	for s := 0; s < nsrc; s++ {
		pushAt(mb, s, 3, float64(s+1), int64(s))
		if s == bucketScanLimit-2 && mb.sparse != nil {
			t.Fatalf("map installed at %d sources, below the scan limit %d", s+1, bucketScanLimit)
		}
	}
	if mb.sparse == nil {
		t.Fatalf("map not installed after %d sources (scan limit %d)", nsrc, bucketScanLimit)
	}
	if len(mb.sparse) != nsrc {
		t.Fatalf("spilled map holds %d buckets, want %d", len(mb.sparse), nsrc)
	}
	for s := 0; s < nsrc; s++ {
		mb.mu.Lock()
		m := mb.matchUserLocked(s, 3, 0, true, 0)
		mb.mu.Unlock()
		if m == nil || m.data[0] != int64(s) {
			t.Fatalf("exact-source match for src %d failed after map spill: %+v", s, m)
		}
		m.release()
	}
}

// arrivalq returns bucket b's arrival FIFO for communicator mctx, or nil.
func arrivalq(b *srcBucket, mctx int32) *msgq {
	if i := b.userIndex(mctx); i >= 0 {
		return &b.user[i].q
	}
	return nil
}

// TestMailboxRingTrimOnReset pins the backlog-spike shedding (the old
// unbounded recycled-queue list): after a burst grows a ring well past
// qRetainEnts, reset must cap the retained capacity, while a
// steady-state-sized ring is kept for reuse.
func TestMailboxRingTrimOnReset(t *testing.T) {
	mb := newMailbox(8)
	const burst = 4 * qRetainEnts
	for i := 0; i < burst; i++ {
		pushAt(mb, 1, 2, float64(i+1), int64(i))
	}
	pushAt(mb, 2, 2, 1, 0) // steady-sized ring on another source
	b1 := mb.peek(1)
	if c := cap(arrivalq(b1, 0).buf); c < burst {
		t.Fatalf("burst ring capacity %d, want >= %d", c, burst)
	}
	mb.reset() // releases the backlog and trims spike-sized rings
	if c := cap(arrivalq(b1, 0).buf); c > qRetainEnts {
		t.Errorf("user ring kept capacity %d after reset, want <= %d", c, qRetainEnts)
	}
	if c := cap(b1.tagPeek(0, 2).buf); c > qRetainEnts {
		t.Errorf("tag ring kept capacity %d after reset, want <= %d", c, qRetainEnts)
	}
	b2 := mb.peek(2)
	if q := arrivalq(b2, 0); q == nil || cap(q.buf) == 0 || cap(q.buf) > qRetainEnts {
		t.Errorf("steady ring not retained for reuse: %+v", q)
	}
	if got := mb.pendingUser(); got != 0 {
		t.Errorf("pending after reset = %d, want 0", got)
	}
}
