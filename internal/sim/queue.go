package sim

import "math/bits"

// signBit flips the int64 sign so that packing a Time into a uint64
// preserves order under unsigned comparison.
const signBit = 1 << 63

// packHi maps a Time to the high word of the packed ordering key. The sign
// flip makes uint64 comparison agree with int64 comparison, so negative
// instants (which the public API clamps away, but the comparator must not
// rely on that) still order correctly.
func packHi(at Time) uint64 { return uint64(at) ^ signBit }

// unpackAt recovers the Time from a packed high word.
func unpackAt(hi uint64) Time { return Time(hi ^ signBit) }

// keyLess compares two packed (Time, seq) keys as a single 128-bit unsigned
// value: the subtraction a-b borrows out of the high word exactly when
// a < b. One borrow chain, no branches — the event queue's entire ordering
// rule, (at, seq) lexicographic, in two ALU ops.
func keyLess(ahi, alo, bhi, blo uint64) bool {
	return lessBit(ahi, alo, bhi, blo) != 0
}

// lessBit is keyLess as the borrow itself, 1 or 0, for index arithmetic
// that picks the smaller of two entries without a branch.
func lessBit(ahi, alo, bhi, blo uint64) int {
	_, borrow := bits.Sub64(alo, blo, 0)
	_, borrow = bits.Sub64(ahi, bhi, borrow)
	return int(borrow)
}

// heapEntry keeps the packed ordering key inline so sift operations compare
// without chasing the event pointer. hi is packHi(at), lo is the sequence
// number; together they form one 128-bit key with the same total order as
// lexicographic (at, seq).
type heapEntry struct {
	hi, lo uint64
	ev     *event
}

// eventHeap is a 4-ary min-heap over packed 128-bit keys: half the depth
// of a binary heap means half the moves per sift, the four children share a
// cache line of heapEntries, and each comparison is one borrow chain
// (keyLess) instead of a two-field branch. Sifts move entries into a hole
// rather than swapping, so each level costs one entry copy, not three.
// Every move records the entry's new position in its event's index.
type eventHeap []heapEntry

func (h eventHeap) siftUp(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !keyLess(e.hi, e.lo, h[p].hi, h[p].lo) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = int32(i)
		i = p
	}
	h[i] = e
	e.ev.index = int32(i)
}

// siftDown restores heap order below i, reporting whether the entry moved.
// The interior-node case (all four children present) is specialized: the
// min-of-four scan runs with no per-child bounds checks.
func (h eventHeap) siftDown(i int) bool {
	n := len(h)
	e := h[i]
	i0 := i
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		mhi, mlo := h[c].hi, h[c].lo
		if c+4 <= n {
			// Interior node: exactly four children, unrolled.
			if keyLess(h[c+1].hi, h[c+1].lo, mhi, mlo) {
				m, mhi, mlo = c+1, h[c+1].hi, h[c+1].lo
			}
			if keyLess(h[c+2].hi, h[c+2].lo, mhi, mlo) {
				m, mhi, mlo = c+2, h[c+2].hi, h[c+2].lo
			}
			if keyLess(h[c+3].hi, h[c+3].lo, mhi, mlo) {
				m, mhi, mlo = c+3, h[c+3].hi, h[c+3].lo
			}
		} else {
			for j := c + 1; j < n; j++ {
				if keyLess(h[j].hi, h[j].lo, mhi, mlo) {
					m, mhi, mlo = j, h[j].hi, h[j].lo
				}
			}
		}
		if !keyLess(mhi, mlo, e.hi, e.lo) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = int32(i)
		i = m
	}
	h[i] = e
	e.ev.index = int32(i)
	return i > i0
}

func (h *eventHeap) push(e heapEntry) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

// pop removes the minimum bottom-up: the hole left at the root follows the
// smallest child down to a leaf — among four children by a branch-free
// tournament, two pairs and then their winners — and the last entry fills
// the hole and sifts up. A top-down sift would compare the last entry, a
// leaf's, at every level only to find it belongs near the bottom again.
// Keys are unique, so the heap's shape differs from remove(0)'s but never
// the order it pops in.
func (h *eventHeap) pop() heapEntry {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s[n] = heapEntry{}
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c+4 <= n; c = i<<2 + 1 {
		a := c + lessBit(s[c+1].hi, s[c+1].lo, s[c].hi, s[c].lo)
		b := c + 2 + lessBit(s[c+3].hi, s[c+3].lo, s[c+2].hi, s[c+2].lo)
		m := a + (b-a)*lessBit(s[b].hi, s[b].lo, s[a].hi, s[a].lo)
		s[i] = s[m]
		s[i].ev.index = int32(i)
		i = m
	}
	if c := i<<2 + 1; c < n {
		// A node with one to three children, the last interior one.
		m := c
		for j := c + 1; j < n; j++ {
			m += (j - m) * lessBit(s[j].hi, s[j].lo, s[m].hi, s[m].lo)
		}
		s[i] = s[m]
		s[i].ev.index = int32(i)
		i = m
	}
	s[i] = last
	s.siftUp(i)
	return top
}

func (h *eventHeap) remove(i int) heapEntry {
	s := *h
	n := len(s) - 1
	e := s[i]
	if i != n {
		s[i] = s[n]
		s[i].ev.index = int32(i)
	}
	s[n] = heapEntry{}
	*h = s[:n]
	if i < n {
		if !s[:n].siftDown(i) {
			s[:n].siftUp(i)
		}
	}
	return e
}

// The timing wheel covers wheelBuckets windows of 1<<bucketShift ns each
// (16.8 ms in all): wide enough that a multi-tenant server's sleeping
// noise timers and running time slices — the events that hold residency in
// the hundreds — sit in it rather than in a heap, narrow enough that a
// window rarely holds more than a few of them.
const (
	bucketShift  = 14
	wheelBuckets = 1024
	wheelMask    = wheelBuckets - 1
)

// Where an event is queued (event.where); values >= 0 are wheel slots.
const (
	inNear = -1
	inFar  = -2
)

// windowOf returns the number of the wheel window a packed instant falls
// in. Window numbers, not instants, carry the horizon: the last window of
// the int64 range plus one still fits, where "the instant after
// math.MaxInt64" would not.
func windowOf(hi uint64) int64 { return int64(unpackAt(hi)) >> bucketShift }

// eventQueue holds every scheduled event that is not on the same-instant
// ring, in three containers split by window number relative to the horizon
// hb:
//
//	near   a 4-ary heap of every event in a window below hb
//	wheel  unsorted slots for the wheelBuckets windows hb, hb+1, ...;
//	       window w lives in slot w & wheelMask, so a slot never mixes
//	       windows. A slot is an intrusive doubly linked list through the
//	       pooled events (event.next/prev, with the packed instant in
//	       event.hi), so the wheel owns no arrays and never allocates
//	far    a 4-ary heap of everything at or beyond window hb+wheelBuckets
//
// Pops follow the strict total order (at, seq) exactly as one heap would:
// an event at or above the horizon cannot precede one below it, so while
// the near heap is non-empty its front is the queue's minimum, and when it
// is empty the horizon moves just past the first occupied window, whose
// slot drains into the near heap — which alone sorts. Which container an
// event waits in, and in what order a slot's list hands its events over,
// is invisible to the simulation.
type eventQueue struct {
	near, far eventHeap
	hb        int64 // horizon, as a window number
	wheelN    int   // events in the wheel
	occ       [wheelBuckets / 64]uint64
	wheel     [wheelBuckets]*event // each slot's list head
}

func (q *eventQueue) len() int { return len(q.near) + q.wheelN + len(q.far) }

// push files e by its window.
func (q *eventQueue) push(e heapEntry) {
	w := windowOf(e.hi)
	switch d := w - q.hb; {
	case d < 0:
		e.ev.where = inNear
		q.near.push(e)
	case d >= wheelBuckets:
		e.ev.where = inFar
		q.far.push(e)
	default:
		slot := int(w & wheelMask)
		ev, head := e.ev, q.wheel[slot]
		ev.where, ev.index, ev.hi = int32(slot), 0, e.hi
		ev.prev, ev.next = nil, head
		if head != nil {
			head.prev = ev
		}
		q.wheel[slot] = ev
		q.occ[slot>>6] |= 1 << (slot & 63)
		q.wheelN++
	}
}

// remove takes a queued event out of whichever container holds it.
func (q *eventQueue) remove(ev *event) {
	switch slot := int(ev.where); slot {
	case inNear:
		q.near.remove(int(ev.index))
	case inFar:
		q.far.remove(int(ev.index))
	default:
		if ev.next != nil {
			ev.next.prev = ev.prev
		}
		if ev.prev != nil {
			ev.prev.next = ev.next
		} else {
			q.wheel[slot] = ev.next
			if ev.next == nil {
				q.occ[slot>>6] &^= 1 << (slot & 63)
			}
		}
		q.wheelN--
	}
	ev.index = -1
}

// firstWindow returns the lowest occupied window of the wheel, which must
// not be empty: the occupancy bitmap is scanned cyclically from the
// horizon's slot.
func (q *eventQueue) firstWindow() int64 {
	start := int(q.hb & wheelMask)
	w := start >> 6
	word := q.occ[w] &^ (1<<(start&63) - 1)
	for i := 0; word == 0; i++ {
		if i == len(q.occ) {
			panic("sim: timing wheel counts events its bitmap does not show")
		}
		w = (w + 1) % len(q.occ)
		word = q.occ[w]
	}
	slot := w<<6 + bits.TrailingZeros64(word)
	return q.hb + int64((slot-start)&wheelMask)
}

// drain moves window w's slot into the near heap.
func (q *eventQueue) drain(w int64) {
	slot := int(w & wheelMask)
	for ev := q.wheel[slot]; ev != nil; ev = ev.next {
		ev.where = inNear
		q.near.push(heapEntry{hi: ev.hi, lo: ev.seq, ev: ev})
		q.wheelN--
	}
	q.wheel[slot] = nil
	q.occ[slot>>6] &^= 1 << (slot & 63)
}

// migrateFar re-files the far events the span has come to cover.
func (q *eventQueue) migrateFar() {
	for len(q.far) > 0 && windowOf(q.far[0].hi)-q.hb < wheelBuckets {
		q.push(q.far.pop())
	}
}

// refill moves the horizon just past the first window that holds an event,
// so that the near heap — empty on entry, with events elsewhere — holds
// the queue's minimum.
func (q *eventQueue) refill() {
	if q.wheelN > 0 {
		w := q.firstWindow()
		q.drain(w)
		q.hb = w + 1
	} else {
		q.hb = windowOf(q.far[0].hi) + 1
	}
	q.migrateFar()
}

// keepAhead restores "the horizon is ahead of the clock" after the clock
// moved to now without a pop (RunUntil over empty windows): every window
// up to now's drains into the near heap. With that invariant every queued
// event at the current instant is in the near heap, which is what lets
// the run loop order the same-instant ring against the near front alone.
func (q *eventQueue) keepAhead(now Time) {
	hb := windowOf(packHi(now)) + 1
	if hb <= q.hb {
		return
	}
	for q.wheelN > 0 {
		w := q.firstWindow()
		if w >= hb {
			break
		}
		q.drain(w)
	}
	q.hb = hb
	q.migrateFar()
}
