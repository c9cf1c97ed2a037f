// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps virtual time as int64 nanoseconds and executes scheduled
// events in (time, insertion-order) order, so two runs with the same seed and
// the same schedule of calls produce bit-identical results. All of the fabric,
// transport, and workload packages in this repository are driven by a single
// Engine instance per simulation run.
//
// # Hot-path design
//
// Schedule/Step are the innermost loop of every experiment, so the engine
// avoids allocation, interface dispatch, and pointer chasing there. Pending
// events are split by how far ahead of the clock they are due. Everything
// due less than wheelSize (2^15) ns after the clock goes into a timing wheel
// of one-nanosecond slots: the clock never runs backwards and no pending
// entry is due before it, so the wheel covers one window [now, now+2^15)
// and every slot holds a single instant. Filing is one list append, and an
// entry never moves again until it pops. The fabric's recurring delays
// (serialization, switch pipeline, the 20 µs host delay) all fall inside
// that horizon. A two-level occupancy bitmap — one bit per slot plus one
// summary bit per 64-slot word — finds the earliest non-empty slot in a
// few word scans however sparse the wheel is.
//
// Each slot is a circular singly linked list through a node pool, linked
// by 1-based pool index, kept sorted by (insertion stamp, sequence). The
// slot array holds the tail, so the common append after the tail and the
// pop of the head are both O(1); a tagged or back-stamped entry that sorts
// earlier walks the list. Everything due further out — retransmission
// timeouts, far workload arrivals — goes into the far heap, a 4-ary
// min-heap carrying the (time, insertion-order) sort key inline next to the
// *Event pointer. A far entry stays there until it pops: as the clock
// advances, the wheel may come to hold an entry due at the same instant,
// so the peek compares the wheel head with the far heap's root on the full
// key. Fired or reclaimed-cancelled events are recycled through a
// per-engine free list, making steady-state scheduling allocation-free.
//
// # Event handle lifetime
//
// Because fired events are recycled, an *Event handle is only meaningful
// until its callback has run (or, for cancelled events, until the engine
// reclaims them). Holding a handle past that point is safe — Fired,
// Cancelled, and Cancel never panic or corrupt the engine, and a handle in
// the free list still reports its final Fired/Cancelled state — but once the
// engine reuses the object for a new event the handle observes the new
// incarnation. Callers that retain handles (e.g. retransmission timers) must
// therefore drop them when the callback runs, as every transport in this
// repository does. Build with `-tags simdebug` to turn any access to a
// recycled handle into a panic with generation diagnostics.
package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Common durations in nanoseconds, for readability at call sites.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts to a time.Duration for printing.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a handle to a scheduled callback. It can be cancelled before it
// fires; cancelling an already-fired or already-cancelled event is a no-op.
// See the package comment for the handle-lifetime contract under event
// recycling.
type Event struct {
	at     Time
	fn     func()
	fired  bool
	cancel bool
	pooled bool   // in the engine's free list awaiting reuse
	gen    uint32 // incremented each time the object is recycled (simdebug)
}

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { e.debugAccess("Cancelled"); return e.cancel }

// Fired reports whether the event's callback has run.
func (e *Event) Fired() bool { e.debugAccess("Fired"); return e.fired }

// Time returns the virtual time at which the event fires or fired.
func (e *Event) Time() Time { e.debugAccess("Time"); return e.at }

// heapEntry is one pending-event slot: the (at, ins, seq) sort key stored
// inline so ordering comparisons touch only the containing array, plus the
// event it schedules.
//
// `ins` is the virtual instant the event was inserted at. For events
// scheduled through At/Schedule, seq order already implies ins order (the
// clock never moves backwards between insertions), so the middle field
// changes nothing for them; it exists so AtTagged can file an event as if
// it had been inserted at an earlier instant, which is how the sharded
// runtime makes deferred cross-shard deliveries land in the same relative
// position they would have occupied serially.
//
// `seq` packs a 16-bit ordering tag above a 48-bit insertion counter (see
// AtTagged), so the effective total order is (at, ins, tag, counter).
// Untagged events carry tag 0xFFFF and therefore keep today's pure
// insertion order among themselves while sorting after any tagged event
// that shares their (at, ins).
type heapEntry struct {
	at  Time
	ins Time
	seq uint64
	ev  *Event
}

func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.ins != b.ins {
		return a.ins < b.ins
	}
	return a.seq < b.seq
}

// Timing-wheel geometry. wheelSize must cover the fabric's longest
// recurring delay (the 20 µs host delay), or those events spill into the
// far heap.
const (
	wheelBits = 15
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	occWords  = wheelSize / 64 // one occupancy bit per slot
	sumWords  = occWords / 64  // one summary bit per occupancy word
)

// wheelNode is one wheel entry in the engine's node pool; next is the pool
// index of the following entry in the same slot's circular list.
type wheelNode struct {
	heapEntry
	next int32
}

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Time
	seq uint64

	nodes    []wheelNode // wheel entry pool; see slots
	freeNode int32       // head of the recycled pool indices, linked by next
	far      []heapEntry // 4-ary min-heap of entries filed beyond the wheel
	pending  int         // entries in the wheel and the far heap, including cancelled ones

	free    []*Event // recycled Event objects
	nCancel int      // cancelled events still occupying queue slots
	stopped bool
	// Executed counts events that have run, for diagnostics and tests.
	Executed uint64

	// The timing wheel, last so that the garbage collector's scan of an
	// Engine ends before these pointer-free arrays. slots[at&wheelMask] is
	// the pool index of the tail of the circular list of entries due at
	// `at` (0: empty slot); bit s of occ is set while slot s is non-empty,
	// and bit w of sum while occ[w] != 0. nodes[0] is never used, so a
	// zeroed slot array is an empty wheel.
	occ   [occWords]uint64
	sum   [sumWords]uint64
	slots [wheelSize]int32
}

// compactMin is the pending-event count below which lazy-deleted (cancelled)
// events are never compacted — popping drains small queues quickly anyway.
const compactMin = 64

// NewEngine returns an empty engine at time zero. The slot array is part
// of the Engine allocation and starts zeroed, i.e. empty; the node pool
// starts with room for 1024 wheel entries and grows by append.
func NewEngine() *Engine {
	return &Engine{nodes: make([]wheelNode, 1, 1024)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn after delay d (>= 0) of virtual time.
func (e *Engine) Schedule(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.At(e.now+d, fn)
}

// At runs fn at absolute virtual time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) *Event {
	return e.AtTagged(t, e.now, TagNone, fn)
}

// TagNone is the ordering tag of events scheduled through At/Schedule: it
// sorts after every explicit tag, and events carrying it order among
// themselves purely by insertion sequence.
const TagNone uint16 = 0xFFFF

// seqCounterBits is how much of heapEntry.seq holds the insertion counter;
// the 16 bits above it hold the ordering tag.
const seqCounterBits = 48

// AtTagged runs fn at absolute virtual time t, ordered against other events
// due at t by (stamp, tag, insertion sequence): stamp (<= t) is the virtual
// instant the event should be treated as inserted at, and tag is a caller-
// chosen intrinsic priority within that instant. At(t, fn) is
// AtTagged(t, Now(), TagNone, fn).
//
// The tagged form exists for conservative-parallel execution. Events that
// can cross shard boundaries (fabric packet hops) are keyed by stable
// identity — arrival instant, receiving device, input port — instead of by
// the engine-local insertion counter, so their position among same-instant
// rivals is a property of the simulated network, not of which shard
// inserted them first. Serial runs use the identical keys and therefore
// execute in the identical order, which is what makes sharded execution
// bit-identical to serial.
func (e *Engine) AtTagged(t, stamp Time, tag uint16, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule into the past: %d < %d", t, e.now))
	}
	if stamp > t {
		panic(fmt.Sprintf("sim: insertion stamp after due time: %d > %d", stamp, t))
	}
	ev := e.alloc()
	ev.at = t
	ev.fn = fn
	en := heapEntry{at: t, ins: stamp, seq: uint64(tag)<<seqCounterBits | e.seq, ev: ev}
	e.seq++
	e.pending++
	if t-e.now < wheelSize {
		e.wheelPush(en)
	} else {
		entryHeapPush(&e.far, en)
	}
	return ev
}

// wheelPush files en in the slot of its due time, which must lie in
// [now, now+wheelSize).
func (e *Engine) wheelPush(en heapEntry) {
	i := e.freeNode
	if i != 0 {
		e.freeNode = e.nodes[i].next
	} else {
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, wheelNode{})
	}
	s := int(en.at) & wheelMask
	tail := e.slots[s]
	n := &e.nodes[i]
	n.heapEntry = en
	switch {
	case tail == 0:
		n.next = i
		e.occ[s>>6] |= 1 << (s & 63)
		e.sum[s>>12] |= 1 << (s >> 6 & 63)
	case e.nodes[tail].less(en):
		n.next = e.nodes[tail].next
		e.nodes[tail].next = i
	default:
		// en sorts before the tail: insert it ahead of the first entry
		// that sorts after it, walking from the head.
		p := tail
		for !en.less(e.nodes[e.nodes[p].next].heapEntry) {
			p = e.nodes[p].next
		}
		n.next = e.nodes[p].next
		e.nodes[p].next = i
		return
	}
	e.slots[s] = i
}

// wheelMin returns the slot of the earliest wheel entry; the wheel must be
// non-empty. Slots are scanned circularly from the clock's own slot, which
// is the order of due times because every wheel entry lies in
// [now, now+wheelSize).
func (e *Engine) wheelMin() int {
	p := int(e.now) & wheelMask
	w := p >> 6
	if b := e.occ[w] >> (p & 63); b != 0 {
		return p + bits.TrailingZeros64(b)
	}
	// The next occupied word after w, wrapping round to w itself (whose
	// set bits, if any, are then all below p: due after the wrap).
	x := (w + 1) & (occWords - 1)
	j := x >> 6
	b := e.sum[j] &^ (1<<(x&63) - 1)
	for b == 0 {
		j = (j + 1) & (sumWords - 1)
		b = e.sum[j]
	}
	w = j<<6 + bits.TrailingZeros64(b)
	return w<<6 + bits.TrailingZeros64(e.occ[w])
}

// head returns the earliest pending entry and where it sits: the head of
// wheel slot s for s >= 0, the far heap's root for s < 0. It returns nil
// when nothing is pending. The entry is valid until the next push or pop.
func (e *Engine) head() (*heapEntry, int) {
	var w *heapEntry
	s := -1
	if e.pending > len(e.far) {
		s = e.wheelMin()
		w = &e.nodes[e.nodes[e.slots[s]].next].heapEntry
	}
	if len(e.far) > 0 && (w == nil || e.far[0].less(*w)) {
		return &e.far[0], -1
	}
	return w, s
}

// pop removes and returns the entry head located at s.
func (e *Engine) pop(s int) heapEntry {
	e.pending--
	if s < 0 {
		return entryHeapPop(&e.far)
	}
	tail := e.slots[s]
	i := e.nodes[tail].next
	n := &e.nodes[i]
	if i == tail {
		e.slots[s] = 0
		e.clearOcc(s)
	} else {
		e.nodes[tail].next = n.next
	}
	en := n.heapEntry
	e.recycleNode(i)
	return en
}

// recycleNode returns pool node i to the free list.
func (e *Engine) recycleNode(i int32) {
	n := &e.nodes[i]
	n.ev = nil
	n.next = e.freeNode
	e.freeNode = i
}

// clearOcc marks slot s empty in both bitmap levels.
func (e *Engine) clearOcc(s int) {
	w := s >> 6
	e.occ[w] &^= 1 << (s & 63)
	if e.occ[w] == 0 {
		e.sum[w>>6] &^= 1 << (w & 63)
	}
}

// alloc takes an Event from the free list, or heap-allocates the first time.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.debugAlloc(ev)
		ev.fired = false
		ev.cancel = false
		ev.pooled = false
		return ev
	}
	return &Event{}
}

// release returns a dead event (fired, or cancelled and reclaimed) to the
// free list. The fired/cancel flags are left intact so a stale handle keeps
// reporting its final state until the object is reused.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.pooled = true
	ev.gen++
	e.debugRelease(ev)
	e.free = append(e.free, ev)
}

// Cancel prevents a pending event from firing.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	ev.debugAccess("Cancel")
	if ev.fired || ev.cancel {
		return
	}
	ev.cancel = true
	// The event stays in its queue slot and is skipped when popped: Cancel
	// is O(1). When cancelled events outnumber live ones the queue is
	// compacted in one pass, so cancel-heavy workloads (retransmission
	// timers are re-armed on every ACK) cannot grow it without bound.
	e.nCancel++
	if p := e.Pending(); e.nCancel*2 > p && p >= compactMin {
		e.compact()
	}
}

// compact removes every cancelled event from the wheel and the far heap in
// one pass and re-establishes the far heap's order. Slot lists keep their
// relative order, and the (at, ins, seq) key is a total order, so the
// compacted queue pops in exactly the same sequence.
func (e *Engine) compact() {
	n := 0
	for w := range e.occ {
		for b := e.occ[w]; b != 0; b &= b - 1 {
			n += e.compactSlot(w<<6 + bits.TrailingZeros64(b))
		}
	}
	keep := e.far[:0]
	for _, en := range e.far {
		if en.ev.cancel {
			e.release(en.ev)
		} else {
			keep = append(keep, en)
		}
	}
	clear(e.far[len(keep):])
	e.far = keep
	for i := (len(keep) - 2) >> 2; i >= 0; i-- {
		entrySiftDown(keep, i)
	}
	e.pending = n + len(keep)
	e.nCancel = 0
}

// compactSlot drops the cancelled entries of non-empty slot s, returning
// the number kept.
func (e *Engine) compactSlot(s int) int {
	tail := e.slots[s]
	var first, last int32
	n := 0
	for i := e.nodes[tail].next; ; {
		nd := &e.nodes[i]
		next := nd.next
		if nd.ev.cancel {
			e.release(nd.ev)
			e.recycleNode(i)
		} else {
			if last == 0 {
				first = i
			} else {
				e.nodes[last].next = i
			}
			last = i
			n++
		}
		if i == tail {
			break
		}
		i = next
	}
	if last == 0 {
		e.slots[s] = 0
		e.clearOcc(s)
	} else {
		e.nodes[last].next = first
		e.slots[s] = last
	}
	return n
}

// Step executes the single next event. It returns false when no runnable
// events remain.
func (e *Engine) Step() bool {
	for {
		h, s := e.head()
		if h == nil {
			return false
		}
		en := e.pop(s)
		ev := en.ev
		if ev.cancel {
			e.nCancel--
			e.release(ev)
			continue
		}
		e.now = en.at
		ev.fired = true
		fn := ev.fn
		fn()
		e.Executed++
		e.release(ev)
		return true
	}
}

// Run executes events until the queue is empty or the virtual clock would
// pass `until`. The clock is left at min(until, time of last event). Events
// scheduled exactly at `until` are executed. After a Stop the clock stays
// at the last event run, since earlier events may still be pending.
//
// The body is Step with the head peeked before popping, since this loop
// moves every packet of every experiment.
func (e *Engine) Run(until Time) {
	e.stopped = false
	for !e.stopped {
		h, s := e.head()
		if h == nil {
			break
		}
		ev := h.ev
		if ev.cancel {
			e.pop(s)
			e.nCancel--
			e.release(ev)
			continue
		}
		if h.at > until {
			break
		}
		e.now = h.at
		e.pop(s)
		ev.fired = true
		fn := ev.fn
		fn()
		e.Executed++
		e.release(ev)
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
}

// RunUntilIdle executes every pending event regardless of time.
func (e *Engine) RunUntilIdle() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Stop makes the current Run/RunUntilIdle call return after the event that is
// currently executing.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of scheduled (possibly cancelled) events.
func (e *Engine) Pending() int { return e.pending }

// NextAt peeks at the due time of the next runnable event without executing
// it or advancing the clock. Cancelled heads are popped and recycled on the
// way — exactly the events Run would discard next — so the peek stays O(1)
// amortized. The second result is false when no runnable event remains.
func (e *Engine) NextAt() (Time, bool) {
	for {
		h, s := e.head()
		if h == nil {
			return 0, false
		}
		ev := h.ev
		if ev.cancel {
			e.pop(s)
			e.nCancel--
			e.release(ev)
			continue
		}
		return h.at, true
	}
}

// --- 4-ary min-heap over []heapEntry, ordered by (at, ins, seq) ---
//
// The far heap. The sort key is duplicated into each entry so sifting
// never dereferences an *Event: all comparisons and moves stay within the
// containing backing array (four words per entry, two entries per 64-byte
// cache line).

func entryHeapPush(hp *[]heapEntry, en heapEntry) {
	h := append(*hp, en)
	*hp = h
	// Sift up without writing en into each visited slot.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !en.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = en
}

func entryHeapPop(hp *[]heapEntry) heapEntry {
	h := *hp
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = heapEntry{} // drop the *Event reference for GC
	h = h[:n]
	*hp = h
	if n > 0 {
		h[0] = last
		entrySiftDown(h, 0)
	}
	return root
}

func entrySiftDown(h []heapEntry, i int) {
	n := len(h)
	en := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Minimum of up to four children. The running minimum's index is
		// tracked so the scan compares in place and never re-copies entries.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if h[k].less(h[m]) {
				m = k
			}
		}
		if en.less(h[m]) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = en
}
