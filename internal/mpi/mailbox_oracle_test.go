package mpi

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sched"
)

// Differential test of the mailbox against a deliberately naive
// reference. refMailbox keeps every queued user-level message in one
// flat slice in push order and applies the MPI matching rules literally
// on every call, with no index, heap, ring or lazy deletion:
//
//   - a source's candidate is its first queued message, in push order,
//     in the requested communicator with a matching tag (per-(source,
//     communicator) FIFO: messages from one source never overtake);
//   - AnySource takes the candidate with the least (arrive, src);
//   - under the Ties perturbation every candidate with arrive <=
//     max(now, least arrive) is available, and Pick(k) indexes the
//     available ones sorted by (arrive, src).
//
// FuzzMailboxDifferential drives random push/probe/take/reset sequences
// through both and requires the identical message from every match.

type refMsg struct {
	id     int64
	src    int
	tag    int
	mctx   int32
	arrive float64
	bytes  int64
}

type refMailbox struct {
	q    []refMsg
	pert *sched.Rank
}

func (r *refMailbox) push(m refMsg) { r.q = append(r.q, m) }

// match returns the id of the message (src, tag, mctx) selects, or -1,
// removing it when remove is set.
func (r *refMailbox) match(src, tag int, mctx int32, remove bool, now float64) int64 {
	var cands []int // per-source candidate positions in r.q
	seen := map[int]bool{}
	for i, m := range r.q {
		if m.mctx != mctx || seen[m.src] {
			continue
		}
		if src != AnySource && m.src != src {
			continue
		}
		if tag != AnyTag && m.tag != tag {
			continue
		}
		seen[m.src] = true
		cands = append(cands, i)
	}
	if len(cands) == 0 {
		return -1
	}
	slices.SortFunc(cands, func(a, b int) int {
		x, y := r.q[a], r.q[b]
		if x.arrive < y.arrive || (x.arrive == y.arrive && x.src < y.src) {
			return -1
		}
		return 1
	})
	pick := cands[0]
	if src == AnySource && r.pert != nil && r.pert.Ties() {
		thr := max(now, r.q[cands[0]].arrive)
		k := 0
		for _, c := range cands {
			if r.q[c].arrive <= thr {
				k++
			}
		}
		pick = cands[r.pert.Pick(k)]
	}
	id := r.q[pick].id
	if remove {
		r.q = slices.Delete(r.q, pick, pick+1)
	}
	return id
}

func (r *refMailbox) queuedBytes() int64 {
	var n int64
	for _, m := range r.q {
		n += m.bytes
	}
	return n
}

// checkFronts asserts the front-heap invariants without disturbing the
// rings: every communicator heap is heap-ordered by (arrive, src); each
// entry sits at its FIFO's recorded position and caches the message at
// the FIFO's ring head, which is live; and a FIFO outside every heap has
// an empty ring (take discards dead entries when the last live message
// goes).
func checkFronts(t *testing.T, mb *mailbox) {
	t.Helper()
	inHeap := 0
	for _, fh := range mb.fronts {
		for i := range fh.h {
			e := &fh.h[i]
			if i > 0 && e.before(&fh.h[(i-1)/2]) {
				t.Fatalf("ctx %d: heap order violated at %d", fh.mctx, i)
			}
			u := &e.b.user[e.ui]
			if u.mctx != fh.mctx || int(u.hpos) != i {
				t.Fatalf("ctx %d: entry %d points at FIFO (ctx %d, hpos %d)", fh.mctx, i, u.mctx, u.hpos)
			}
			if u.q.n == 0 {
				t.Fatalf("ctx %d: entry %d has an empty FIFO", fh.mctx, i)
			}
			h := u.q.buf[u.q.head]
			if h.m != e.m || h.m.gen.Load() != h.gen || e.arrive != h.m.arrive || e.src != int32(h.m.src) {
				t.Fatalf("ctx %d: entry %d does not cache its FIFO's live head", fh.mctx, i)
			}
		}
		inHeap += len(fh.h)
	}
	live := 0
	for _, b := range mb.used {
		for i := range b.user {
			u := &b.user[i]
			if u.hpos < 0 && u.q.n != 0 {
				t.Fatalf("src %d ctx %d: out of the heap with %d ring entries", b.src, u.mctx, u.q.n)
			}
			if u.hpos >= 0 {
				live++
			}
		}
	}
	if live != inHeap {
		t.Fatalf("%d FIFOs claim a heap position but the heaps hold %d entries", live, inHeap)
	}
}

// mailboxDiffOps runs one operation sequence decoded from data through
// the mailbox and the reference. The first byte picks the setting: bit 0
// the Ties perturbation, bit 1 the large-world (sparse bucket) layout,
// bit 2 jittered non-monotone arrival stamps, bits 3-7 the source count.
func mailboxDiffOps(t *testing.T, data []byte) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	cfg := next()
	ties, sparse, jitter := cfg&1 != 0, cfg&2 != 0, cfg&4 != 0
	nsrc := 1 + (cfg>>3)%(bucketScanLimit+4) // crosses the sparse map spill
	world := nsrc
	if sparse {
		world = denseSrcLimit + nsrc
	}
	mb := newMailbox(world)
	ref := &refMailbox{}
	var pReal, pRef *sched.Rank
	if ties {
		// Two perturbers from one seed: identical Pick streams, so every
		// draw lines up as long as both sides draw with the same k.
		pReal = sched.New(0x5eed, sched.Profile{Ties: true}, 1).Rank(0)
		pRef = sched.New(0x5eed, sched.Profile{Ties: true}, 1).Rank(0)
	}
	mb.pert, ref.pert = pReal, pRef

	clock := make([]float64, nsrc)
	var id int64
	var buf [6]int64
	selector := func(v, n int) int { // -1 (Any*) or an exact value
		if v%(n+1) == n {
			return -1
		}
		return v % (n + 1)
	}
	for pos < len(data) {
		op := next()
		switch op % 8 {
		case 0, 1, 2: // push
			src, tag, mctx := next()%nsrc, next()%3, int32(next()%2)
			words := 1 + next()%6 // past inlineWords: spill buffers too
			clock[src] += float64(next() % 4)
			arrive := clock[src]
			if jitter {
				arrive += float64(next() % 8) // latency: reorders one source's stamps
			}
			buf[0] = id
			m := newMessage(src, tag, mctx, buf[:words])
			m.arrive = arrive
			mb.push(m)
			ref.push(refMsg{id: id, src: src, tag: tag, mctx: mctx, arrive: arrive, bytes: int64(8 * words)})
			id++
		case 3, 4, 5, 6: // probe or take
			src := selector(next(), nsrc)
			tag := selector(next(), 3)
			mctx := int32(next() % 2)
			now := float64(next() % 32)
			remove := op%8 >= 5
			if src < 0 {
				src = AnySource
			}
			if tag < 0 {
				tag = AnyTag
			}
			mb.mu.Lock()
			m := mb.matchUserLocked(src, tag, mctx, remove, now)
			mb.mu.Unlock()
			want := ref.match(src, tag, mctx, remove, now)
			got := int64(-1)
			if m != nil {
				got = m.data[0]
			}
			if got != want {
				t.Fatalf("op %d match(src %d, tag %d, ctx %d, remove %v, now %g): mailbox message %d, reference %d",
					pos, src, tag, mctx, remove, now, got, want)
			}
			if m != nil && remove {
				m.release()
			}
		case 7:
			if next()%4 != 0 {
				continue
			}
			mb.reset()
			mb.pert = pReal // reset clears it; the run keeps its stream
			ref.q = ref.q[:0]
		}
		if n := mb.pendingUser(); n != len(ref.q) {
			t.Fatalf("op %d: mailbox holds %d messages, reference %d", pos, n, len(ref.q))
		}
		if q, want := mb.queuedBytes(), ref.queuedBytes(); q != want {
			t.Fatalf("op %d: mailbox queues %d bytes, reference %d", pos, q, want)
		}
		checkFronts(t, mb)
	}
	mb.reset()
}

// FuzzMailboxDifferential compares the mailbox against refMailbox on
// arbitrary operation sequences. Run it with
//
//	go test -run xxx -fuzz FuzzMailboxDifferential ./internal/mpi/
//
// The seed corpus below runs under plain go test.
func FuzzMailboxDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x18, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 5, 3, 3, 0, 0})
	// Every setting bit combination, each with a long random sequence.
	rnd := rand.New(rand.NewSource(1))
	for cfg := 0; cfg < 8; cfg++ {
		seq := make([]byte, 4096)
		rnd.Read(seq)
		seq[0] = byte(cfg | (rnd.Intn(32) << 3))
		f.Add(seq)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			return
		}
		mailboxDiffOps(t, data)
	})
}
