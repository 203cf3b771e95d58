package sim

// calendarQueue is the engine's future-event list: a calendar queue
// (Brown 1988) — a power-of-two wheel of day buckets, each an intrusive
// singly-linked list threaded through event.next. A pending event lives in
// bucket (at/width) & mask; popping scans forward from the current day and
// extracts the minimum (at, seq) inside it. Neither path allocates.
//
// A pop walks every entry of the day it drains, so it is O(1) only while
// a day holds O(1) events. The width therefore follows the events about to
// be popped, not the whole pending set: packet models keep a dense
// near-term window (frames ~1 ns apart) next to a sparse tail of
// retransmit timers ~100 µs out, and a width sized from the full span
// piles dozens of near-term events into every day. Two rules keep it
// right:
//
//   - Every resize sets the width from the calSample earliest pending
//     events by Brown's rule: 3 × their mean gap, after dropping gaps above
//     2× the first-pass mean. The width never drops below the sample's
//     span over one year (n days), so draining the sampled events cannot
//     leave the next one a whole year of empty days away.
//   - Each pop charges its misfit — scan work a different width would have
//     saved: entries of its day at another instant than the one popped
//     (too wide), plus empty days stepped past (too narrow) — to a window
//     of one wheel's worth of pops. When the window's charge passes
//     calPopCost per bucket, the width is re-derived at the same bucket
//     count. Same-instant entries and later-year entries are not charged:
//     no width separates them. A recalibration costs O(n + count) after at
//     least calPopCost·n wasted steps, and the trigger reads queue state
//     only, so it is deterministic.
//
// Ordering is byte-identical to the heap the engine used before: (at, seq)
// is a unique total order, so any correct priority queue pops the same
// sequence. calendar_test.go proves it differentially against eventQueue.
//
// Invariant: no pending event's day precedes curDay. Pops are monotonic in
// time and At refuses past scheduling, so pushes can only precede curDay
// when a blocked popAtMost advanced the cursor to a minimum that was then
// cancelled; push re-opens the cursor for that case.
type calendarQueue struct {
	buckets  []*event
	mask     uint64 // len(buckets)-1; len(buckets) is a power of two
	width    uint64 // bucket span in picoseconds, ≥ 1
	count    int
	curDay   uint64 // at/width ordinal of the bucket being drained
	growAt   int    // count above which the wheel doubles
	shrinkAt int    // count below which the wheel halves

	winPops int // pops in the current cost window
	winCost int // misfit charged by those pops

	sample [calSample]Time // resize scratch: the earliest times, ascending
	stats  QueueStats
}

// QueueStats counts the future-event list's work. Every field is a
// function of the schedule/cancel/pop sequence alone, so the counts are
// deterministic and comparable across hosts.
type QueueStats struct {
	Pops        uint64 // events popped (the engine's executed count)
	Visits      uint64 // bucket entries walked by pops
	UnlinkSteps uint64 // bucket entries Cancel walked past to find its event
	Resizes     uint64 // wheel rebuilds: grow, shrink or recalibration
	MinScans    uint64 // pops that found a whole year empty and searched every bucket
}

const (
	// calMinBuckets floors the wheel so shrinking never degenerates.
	calMinBuckets = 16
	// calMaxBuckets caps construction/grow; beyond this the per-pop
	// empty-bucket scan would cost more than the list lengths it avoids.
	calMaxBuckets = 1 << 20
	// calInitWidth is the width before the first resize: 1 ns, the gap
	// the packet datapath's serialization times cluster around.
	calInitWidth = 1000
	// calSample is how many of the earliest pending events a resize
	// reads to set the width (Brown samples ~25).
	calSample = 32
	// calPopCost is the mean misfit per pop above which a cost window
	// recalibrates. A width at Brown's rule runs at ~1–2.
	calPopCost = 4
	// calMaxWidth keeps (day+1)·width inside uint64 for any Time.
	calMaxWidth = 1 << 62
)

// init sizes the wheel for roughly hint simultaneous pending events.
func (q *calendarQueue) init(hint int) {
	n := calMinBuckets
	for n < hint && n < calMaxBuckets {
		n <<= 1
	}
	q.setBuckets(n)
	q.width = calInitWidth
}

func (q *calendarQueue) setBuckets(n int) {
	q.buckets = make([]*event, n)
	q.mask = uint64(n - 1)
	q.growAt = 2 * n
	q.shrinkAt = n / 4
}

func (q *calendarQueue) len() int { return q.count }

// push files ev under its day bucket. ev.index becomes the bucket index
// (≥ 0 marks "pending", matching the heap's index contract that Cancel
// relies on).
func (q *calendarQueue) push(ev *event) {
	d := uint64(ev.at) / q.width
	idx := int(d & q.mask)
	ev.next = q.buckets[idx]
	ev.index = idx
	q.buckets[idx] = ev
	q.count++
	if d < q.curDay {
		q.curDay = d
	}
	if q.count > q.growAt {
		q.resize(len(q.buckets) * 2)
	}
}

// unlink removes a cancelled pending event from its bucket. It does its
// own pointer surgery rather than find the predecessor and call remove:
// that variant measured ~5% slower on the cancel path.
func (q *calendarQueue) unlink(ev *event) {
	idx := ev.index
	ev.index = -1
	if p := q.buckets[idx]; p == ev {
		q.buckets[idx] = ev.next
	} else {
		for p.next != ev {
			p = p.next
			q.stats.UnlinkSteps++
		}
		p.next = ev.next
	}
	ev.next = nil
	q.count--
	if q.count < q.shrinkAt {
		q.resize(len(q.buckets) / 2)
	}
}

// remove takes a popped event out of its bucket, given its predecessor
// there (nil at the head), and marks it spent.
func (q *calendarQueue) remove(ev, prev *event) {
	if prev == nil {
		q.buckets[ev.index] = ev.next
	} else {
		prev.next = ev.next
	}
	ev.index = -1
	ev.next = nil
	q.count--
}

// popAtMost extracts the minimum (at, seq) event if its time is ≤ limit,
// else leaves the queue untouched and returns nil (also when empty).
// It charges its misfit (see the type comment) to the cost window.
func (q *calendarQueue) popAtMost(limit Time) *event {
	if q.count == 0 {
		return nil
	}
	n := uint64(len(q.buckets))
	d := q.curDay
	var best, bestPrev *event
	visits, misfit := 0, 0
	for i := uint64(0); i < n; i++ {
		// A bucket holds day d and later years only (no pending day
		// precedes curDay), so at < end means "in day d".
		end := (d + 1) * q.width
		var prev *event
		inDay, same := 0, 0 // entries in day d; those at best's instant
		for ev := q.buckets[d&q.mask]; ev != nil; prev, ev = ev, ev.next {
			visits++
			if uint64(ev.at) >= end {
				continue // a later year sharing this bucket
			}
			inDay++
			switch {
			case best == nil || ev.at < best.at:
				best, bestPrev, same = ev, prev, 1
			case ev.at == best.at:
				same++
				if ev.seq < best.seq {
					best, bestPrev = ev, prev
				}
			}
		}
		if best != nil {
			// Days scan in time order and no pending event precedes
			// curDay, so the minimum of the first non-empty day is the
			// global minimum.
			q.curDay = d
			misfit = inDay - same + int(i)
			break
		}
		d++
	}
	if best == nil {
		// A whole year of empty days: the population is sparse at this
		// width. Jump the cursor straight to the global minimum.
		q.stats.MinScans++
		best, bestPrev = q.minScan()
		q.curDay = uint64(best.at) / q.width
		visits, misfit = 2*visits, 2*int(n)
	}
	q.stats.Visits += uint64(visits)
	q.winCost += misfit
	if best.at > limit {
		return nil
	}
	q.winPops++
	q.remove(best, bestPrev)
	switch {
	case q.count < q.shrinkAt:
		q.resize(len(q.buckets) / 2)
	case q.winCost > calPopCost*len(q.buckets):
		q.resize(len(q.buckets))
	case q.winPops >= len(q.buckets):
		q.winPops, q.winCost = 0, 0
	}
	return best
}

// minScan finds the global minimum (at, seq) and its bucket predecessor
// by walking every bucket. Only the sparse-population fallback pays this
// O(n) cost.
func (q *calendarQueue) minScan() (best, bestPrev *event) {
	for _, head := range q.buckets {
		var prev *event
		for ev := head; ev != nil; prev, ev = ev, ev.next {
			if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
				best, bestPrev = ev, prev
			}
		}
	}
	return best, bestPrev
}

// resize rebuilds the wheel at n buckets and re-derives the width from the
// calSample earliest pending events (see the type comment). It also
// starts a fresh cost window. All inputs are pending-event state, so the
// rebuild is deterministic.
func (q *calendarQueue) resize(n int) {
	if n < calMinBuckets || n > calMaxBuckets || q.count == 0 {
		return
	}
	q.stats.Resizes++
	q.winPops, q.winCost = 0, 0
	// Collect every pending event into one list, keeping the earliest
	// times in the sample.
	var head *event
	m := 0
	for i := range q.buckets {
		for ev := q.buckets[i]; ev != nil; {
			next := ev.next
			ev.next = head
			head = ev
			m = q.keepEarliest(m, ev.at)
			ev = next
		}
		q.buckets[i] = nil
	}
	q.width = q.sampleWidth(m, n)
	if len(q.buckets) != n {
		q.setBuckets(n)
	}
	q.curDay = uint64(q.sample[0]) / q.width
	for ev := head; ev != nil; {
		next := ev.next
		idx := int((uint64(ev.at) / q.width) & q.mask)
		ev.next = q.buckets[idx]
		ev.index = idx
		q.buckets[idx] = ev
		ev = next
	}
}

// keepEarliest offers at to q.sample[:m], the earliest times seen so far
// in ascending order, and returns the sample's new size.
func (q *calendarQueue) keepEarliest(m int, at Time) int {
	s := &q.sample
	if m == len(s) {
		if at >= s[m-1] {
			return m
		}
		m-- // the latest kept time drops out
	}
	i := m
	for ; i > 0 && s[i-1] > at; i-- {
		s[i] = s[i-1]
	}
	s[i] = at
	return m + 1
}

// sampleWidth returns the width for an n-bucket wheel from the ascending
// sample q.sample[:m] by Brown's rule: 3 × the mean gap between the
// sampled times, after dropping gaps above twice the first-pass mean,
// floored so that n days span the sample. When only same-instant (zero)
// gaps survive the cut, the untrimmed mean stands in; a sample with no
// spread keeps the current width.
func (q *calendarQueue) sampleWidth(m, n int) uint64 {
	s := q.sample[:m]
	if m < 2 || s[m-1] == s[0] {
		return q.width
	}
	span := uint64(s[m-1] - s[0])
	cut := 2 * span / uint64(m-1)
	var sum, kept uint64
	for i := 1; i < m; i++ {
		if g := uint64(s[i] - s[i-1]); g <= cut {
			sum += g
			kept++
		}
	}
	if sum == 0 {
		sum, kept = span, uint64(m-1)
	}
	mean := min(sum/kept, calMaxWidth/3)
	return max(3*mean, span/uint64(n-1)+1)
}
