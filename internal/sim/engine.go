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
// events live in a radix heap keyed on due time. A radix heap fits a
// monotone clock: the engine never pops anything earlier than the last
// popped time, so an entry can be filed by the highest bit in which its due
// time differs from that base — one append — and is only looked at again
// when everything below its bucket has drained. A bucket is then emptied in
// one pass: its minimum becomes the new base and every other entry drops
// into a strictly lower bucket, so each entry moves at most once per bit of
// its delay.
//
// Entries due at the base — and any that a bounded Run or a NextAt peek
// leaves in the window between the clock and the base — sit in bucket 0, a
// 4-ary min-heap carrying the (time, insertion-order) sort key inline next
// to the *Event pointer, so ordering same-instant ties never dereferences
// the events themselves. Fired or reclaimed-cancelled events are recycled
// through a per-engine free list, making steady-state scheduling
// allocation-free.
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

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// The radix heap. last is the base: the due time of the entry most
	// recently brought to the front, which only grows. buckets[0] is a
	// 4-ary min-heap on the full (at, ins, seq) key holding every entry
	// due at or before last; an entry due after last sits unordered in
	// buckets[bits.Len64(at ^ last)]. Bit i of occ is set while bucket
	// i >= 1 is non-empty, so finding the lowest one is one instruction.
	last    Time
	buckets [64][]heapEntry // a non-negative Time has at most 63 bits
	occ     uint64
	pending int // entries across all buckets, including cancelled ones

	free    []*Event // recycled Event objects
	nCancel int      // cancelled events still occupying queue slots
	stopped bool
	// Executed counts events that have run, for diagnostics and tests.
	Executed uint64
}

// compactMin is the pending-event count below which lazy-deleted (cancelled)
// events are never compacted — popping drains small queues quickly anyway.
const compactMin = 64

// NewEngine returns an empty engine at time zero.
//
// Every bucket gets 128 entries of capacity from one arena (64 × 128 × 32 B
// = 256 KB). Which bucket an entry lands in depends on the bit pattern of
// its absolute due time, so a run at a later clock fills buckets an earlier
// run never grew; carving them all up front keeps steady-state scheduling
// allocation-free. A bucket that outgrows its slice falls back to append's
// normal reallocation and keeps the larger array.
func NewEngine() *Engine {
	e := &Engine{}
	const c = 128
	arena := make([]heapEntry, len(e.buckets)*c)
	for i := range e.buckets {
		e.buckets[i] = arena[i*c : i*c : (i+1)*c]
	}
	return e
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
	if t <= e.last {
		// Due at the base, or behind it: after a bounded Run or a NextAt
		// peek the clock may trail the base, and such entries must pop
		// before everything in the higher buckets.
		entryHeapPush(&e.buckets[0], en)
	} else {
		i := bits.Len64(uint64(t ^ e.last))
		e.buckets[i] = append(e.buckets[i], en)
		e.occ |= 1 << i
	}
	return ev
}

// front makes bucket 0 hold the earliest pending entry and returns it, or
// returns nil when nothing is pending. When bucket 0 is empty, the lowest
// non-empty bucket is redistributed: its minimum due time becomes the new
// base, entries due then are heap-pushed into bucket 0, and the rest — all
// of which share the base's bits above their new index — fall into lower
// buckets.
func (e *Engine) front() *[]heapEntry {
	h := &e.buckets[0]
	if len(*h) > 0 {
		return h
	}
	if e.occ == 0 {
		return nil
	}
	i := bits.TrailingZeros64(e.occ)
	e.occ &^= 1 << i
	b := e.buckets[i]
	m := b[0].at
	for _, en := range b[1:] {
		if en.at < m {
			m = en.at
		}
	}
	e.last = m
	for _, en := range b {
		if en.at == m {
			entryHeapPush(h, en)
		} else {
			j := bits.Len64(uint64(en.at ^ m))
			e.buckets[j] = append(e.buckets[j], en)
			e.occ |= 1 << j
		}
	}
	e.buckets[i] = b[:0]
	return h
}

// pop removes and returns the earliest entry; front must have returned h.
func (e *Engine) pop(h *[]heapEntry) heapEntry {
	e.pending--
	return entryHeapPop(h)
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

// compact removes every cancelled event from every bucket in one pass and
// re-establishes bucket 0's heap property; the other buckets are unordered
// anyway. Relative order of live events is irrelevant for correctness: the
// (at, ins, seq) key is a total order, so the rebuilt queue pops in exactly
// the same sequence.
func (e *Engine) compact() {
	n := 0
	for i := range e.buckets {
		b := e.buckets[i]
		keep := b[:0]
		for _, en := range b {
			if en.ev.cancel {
				e.release(en.ev)
			} else {
				keep = append(keep, en)
			}
		}
		clear(b[len(keep):])
		e.buckets[i] = keep
		n += len(keep)
		if len(keep) == 0 {
			e.occ &^= 1 << i
		}
	}
	h := e.buckets[0]
	for i := (len(h) - 2) >> 2; i >= 0; i-- {
		entrySiftDown(h, i)
	}
	e.pending = n
	e.nCancel = 0
}

// Step executes the single next event. It returns false when no runnable
// events remain.
func (e *Engine) Step() bool {
	for {
		h := e.front()
		if h == nil {
			return false
		}
		en := e.pop(h)
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
// scheduled exactly at `until` are executed.
//
// The body is Step with the root peeked before popping, since this loop
// moves every packet of every experiment.
func (e *Engine) Run(until Time) {
	e.stopped = false
	for !e.stopped {
		h := e.front()
		if h == nil {
			break
		}
		ev := (*h)[0].ev
		if ev.cancel {
			e.pop(h)
			e.nCancel--
			e.release(ev)
			continue
		}
		if (*h)[0].at > until {
			break
		}
		e.now = (*h)[0].at
		e.pop(h)
		ev.fired = true
		fn := ev.fn
		fn()
		e.Executed++
		e.release(ev)
	}
	if e.now < until {
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
// it or advancing the clock. Cancelled roots are popped and recycled on the
// way — exactly the events Run would discard next — so the peek stays O(1)
// amortized. The second result is false when no runnable event remains.
func (e *Engine) NextAt() (Time, bool) {
	for {
		h := e.front()
		if h == nil {
			return 0, false
		}
		ev := (*h)[0].ev
		if ev.cancel {
			e.pop(h)
			e.nCancel--
			e.release(ev)
			continue
		}
		return (*h)[0].at, true
	}
}

// --- 4-ary min-heap over []heapEntry, ordered by (at, ins, seq) ---
//
// Bucket 0 of the radix heap. The sort key is duplicated into each entry so sifting never dereferences an *Event: all
// comparisons and moves stay within the containing backing array (four
// words per entry, two entries per 64-byte cache line).

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
