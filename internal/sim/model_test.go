package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// This file model-checks the production engine (timing wheel plus far
// heap, lazy cancellation, free-list recycling) against an
// obviously-correct reference: an unsorted slice scanned for the
// (time, stamp, tag, seq) minimum, with Cancel as immediate removal.
// Random operation sequences — Schedule, AtTagged, Cancel, Run, Step,
// NextAt — must produce identical firing order, identical clocks,
// identical peeks, and identical executed counts.
// testing/quick drives short random sequences on every `go test`;
// FuzzEngine (fuzz_test.go) reuses the same interpreter for coverage-guided
// exploration with a checked-in corpus.

// refEvent is one pending event in the reference model. key is the tag
// above the insertion counter, as AtTagged packs it.
type refEvent struct {
	at  Time
	ins Time
	key uint64
	id  int
}

// refModel is the executable specification: (time, stamp, tag,
// insertion-order) total order, cancel-by-removal, clock advanced to each
// fired event.
type refModel struct {
	now   Time
	seq   uint64
	evs   []refEvent
	order []int
}

func (m *refModel) schedule(at, stamp Time, tag uint16, id int) {
	m.evs = append(m.evs, refEvent{at: at, ins: stamp, key: uint64(tag)<<seqCounterBits | m.seq, id: id})
	m.seq++
}

func (m *refModel) cancel(id int) {
	for i := range m.evs {
		if m.evs[i].id == id {
			m.evs = append(m.evs[:i], m.evs[i+1:]...)
			return
		}
	}
}

func (m *refModel) min() int {
	best := 0
	for i := 1; i < len(m.evs); i++ {
		e, b := m.evs[i], m.evs[best]
		if e.at < b.at || e.at == b.at && (e.ins < b.ins || e.ins == b.ins && e.key < b.key) {
			best = i
		}
	}
	return best
}

func (m *refModel) step() bool {
	if len(m.evs) == 0 {
		return false
	}
	i := m.min()
	ev := m.evs[i]
	m.evs = append(m.evs[:i], m.evs[i+1:]...)
	m.now = ev.at
	m.order = append(m.order, ev.id)
	return true
}

func (m *refModel) run(until Time) {
	for len(m.evs) > 0 && m.evs[m.min()].at <= until {
		m.step()
	}
	if m.now < until {
		m.now = until
	}
}

// runEngineModel interprets data as an operation sequence over both the real
// engine and the reference model and returns an error on any divergence.
// The interpreter respects the handle-lifetime contract: a handle is only
// cancelled while its callback has not run (the `done` flag is set by the
// callback itself, exactly how transports drop their timer handles).
func runEngineModel(data []byte) error {
	eng := NewEngine()
	ref := &refModel{}
	var got []int

	type handle struct {
		ev   *Event
		id   int
		done bool
	}
	var live []*handle
	nextID := 0

	i := 0
	nextByte := func() (byte, bool) {
		if i >= len(data) {
			return 0, false
		}
		b := data[i]
		i++
		return b, true
	}

	// add schedules one event on both sides.
	add := func(t, stamp Time, tag uint16) {
		id := nextID
		nextID++
		h := &handle{id: id}
		h.ev = eng.AtTagged(t, stamp, tag, func() {
			got = append(got, id)
			h.done = true
		})
		ref.schedule(t, stamp, tag, id)
		live = append(live, h)
	}
	// cancel cancels one contract-live handle on both sides. After Cancel
	// the handle must be treated as dropped — the engine may compact
	// immediately and recycle the object, so even reading
	// h.ev.Cancelled() would violate the lifetime contract (and panic
	// under simdebug).
	cancel := func(h *handle) {
		eng.Cancel(h.ev)
		h.done = true
		ref.cancel(h.id)
	}
	// tagStamp decodes one byte into an ordering tag (0..3, or TagNone
	// when the top bit is set) and an insertion stamp 0..3 ns before now.
	tagStamp := func(tb byte, now Time) (uint16, Time) {
		tag := uint16(tb % 4)
		if tb&0x80 != 0 {
			tag = TagNone
		}
		stamp := now - Time(tb>>2&3)
		if stamp < 0 {
			stamp = 0
		}
		return tag, stamp
	}
	pending := func() []*handle {
		var cands []*handle
		for _, h := range live {
			if !h.done {
				cands = append(cands, h)
			}
		}
		return cands
	}

	for {
		op, ok := nextByte()
		if !ok {
			break
		}
		now := eng.Now()
		switch op % 13 {
		case 0, 1, 2, 3: // schedule
			db, _ := nextByte()
			// Three delay regimes: tiny delays force same-instant ties in
			// one wheel slot, mid delays spread over the wheel and past
			// its 32 µs horizon, and case-3 delays mostly go to the far
			// heap, where they later meet wheel entries filed nearer in.
			var d Time
			switch {
			case op%13 == 3:
				d = Time(db) * 8191 // 0 .. ~2.1 ms
			case op%13 == 2:
				d = Time(db) * 257 // 0 .. ~65 µs
			default:
				d = Time(db % 32)
			}
			add(now+d, now, TagNone)
		case 4, 5: // cancel one contract-live handle
			jb, _ := nextByte()
			if cands := pending(); len(cands) > 0 {
				cancel(cands[int(jb)%len(cands)])
			}
		case 6: // run a bounded window (alternating near and far)
			db, _ := nextByte()
			w := Time(db % 64)
			if db >= 128 {
				w = Time(db) * 16384 // up to ~4 ms
			}
			until := now + w
			eng.Run(until)
			ref.run(until)
			if eng.Now() != ref.now {
				return fmt.Errorf("op %d: Run(%d): clock %d, reference %d", i, until, eng.Now(), ref.now)
			}
		case 7: // single steps
			nb, _ := nextByte()
			for k := 0; k <= int(nb%4); k++ {
				a := eng.Step()
				b := ref.step()
				if a != b {
					return fmt.Errorf("op %d: Step() = %v, reference %v", i, a, b)
				}
				if a && eng.Now() != ref.now {
					return fmt.Errorf("op %d: Step clock %d, reference %d", i, eng.Now(), ref.now)
				}
			}
		case 8: // NextAt peek: discards cancelled heads without moving the clock
			at, ok := eng.NextAt()
			var want Time
			if len(ref.evs) > 0 {
				want = ref.evs[ref.min()].at
			}
			if ok != (len(ref.evs) > 0) || at != want {
				return fmt.Errorf("op %d: NextAt() = %d, %v, reference %d, %v", i, at, ok, want, len(ref.evs) > 0)
			}
		case 9: // far instant: 2^40 ns .. 2^62 ns plus a low offset, so
			// the clock later jumps many wheel revolutions at once
			db, _ := nextByte()
			t := Time(1)<<(40+db%23) + Time(db)
			if t < now {
				t = now + Time(db%8)
			}
			add(t, now, TagNone)
		case 10: // burst of same-instant events with stamps and tags that tie
			db, _ := nextByte()
			t := now + Time(db>>3)
			for k := 0; k < 2+int(db%6); k++ {
				tb, _ := nextByte()
				tag, stamp := tagStamp(tb, now)
				add(t, stamp, tag)
			}
		case 11: // cancel storm: every other contract-live handle, which
			// drives compaction once the queue is big enough
			db, _ := nextByte()
			for k, h := range pending() {
				if k%2 == int(db%2) {
					cancel(h)
				}
			}
		case 12: // wheel edge: one event due wheelSize-4 .. wheelSize+3 ns
			// ahead, on either side of the wheel's horizon
			db, _ := nextByte()
			tb, _ := nextByte()
			tag, stamp := tagStamp(tb, now)
			add(now+wheelSize-4+Time(db%8), stamp, tag)
		}
	}

	eng.RunUntilIdle()
	for ref.step() {
	}

	if len(got) != len(ref.order) {
		return fmt.Errorf("fired %d events, reference fired %d", len(got), len(ref.order))
	}
	for k := range got {
		if got[k] != ref.order[k] {
			return fmt.Errorf("firing order diverges at %d: got id %d, reference id %d (got %v, want %v)",
				k, got[k], ref.order[k], got, ref.order)
		}
	}
	if eng.Now() != ref.now {
		return fmt.Errorf("final clock %d, reference %d", eng.Now(), ref.now)
	}
	if eng.Executed != uint64(len(got)) {
		return fmt.Errorf("Executed = %d, fired %d", eng.Executed, len(got))
	}
	if eng.Pending() != 0 {
		return fmt.Errorf("Pending = %d after drain", eng.Pending())
	}
	return nil
}

func TestEngineModelQuick(t *testing.T) {
	f := func(data []byte) bool {
		if err := runEngineModel(data); err != nil {
			t.Logf("sequence %q: %v", data, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// compactSeq fills one wheel slot with 90 same-instant tagged ties,
// spreads 30 more events over the wheel, then cancels just over half of
// them so compaction runs while that slot's list is long.
func compactSeq() []byte {
	var s []byte
	for k := 0; k < 30; k++ {
		s = append(s, 10, 0x07, byte(k), byte(k)|0x80, 3, 2, byte(k))
	}
	return append(s, 11, 1, 4, 0, 7, 3, 6, 200)
}

// farTieSeq files a far-heap entry (tag byte farTB) due wheelSize ns after
// clock 5, moves the clock to 6, and files a wheel entry (tag byte
// wheelTB) due at the same instant, then drains both. With farTB's stamp
// 5, wheelTB's stamp offset 0, 1 or 2 puts the wheel entry's insertion
// instant after, equal to, or before the far entry's.
func farTieSeq(farTB, wheelTB byte) []byte {
	return []byte{0, 5, 7, 0, 12, 4, farTB, 0, 1, 7, 0, 12, 3, wheelTB, 8, 7, 3}
}

// farTiesSeq chains farTieSeq over every (insertion stamp, tag) order
// between the two tied entries: tags 0, 1 and TagNone on either side, and
// the wheel entry inserted after, at, or before the far one.
func farTiesSeq() []byte {
	var s []byte
	tags := []byte{0, 1, 0x80}
	for _, ft := range tags {
		for _, wt := range tags {
			for k := byte(0); k < 3; k++ {
				s = append(s, farTieSeq(ft, wt|k<<2)...)
			}
		}
	}
	return s
}

// midSlotCompactSeq files ten 7-event same-instant bursts at ten adjacent
// instants plus a far entry, cancels the fourth event of the first burst,
// then cancels every other survivor, so compaction unlinks entries from
// the middle of each slot list and frees them back to the node pool.
func midSlotCompactSeq() []byte {
	s := []byte{3, 255}
	for x := byte(0); x < 10; x++ {
		db := x << 3 // burst at now+x; the low bits make 2+db%6 = 7 events
		for db%6 != 5 {
			db++
		}
		s = append(s, 10, db)
		for k := byte(0); k < 7; k++ {
			s = append(s, (x+k)%4|(k&1)<<7|k%3<<2)
		}
	}
	return append(s, 4, 3, 11, 0, 0, 3, 12, 4, 0x81, 7, 3, 8, 7, 3)
}

// directedSeqs are operation sequences aimed at the queue's edges. The
// wheel-* ones are checked in as FuzzEngine corpus entries named after
// them; the radix-* corpus entries replay sequences aimed at the radix heap
// that preceded the wheel, and stay as regression inputs.
var directedSeqs = []struct {
	name string
	seq  []byte
}{
	{"empty", []byte{}},
	{"ties", []byte{0, 0, 0, 0, 0, 0, 7, 3}},
	{"schedule-cancel-run", []byte{0, 5, 1, 5, 2, 5, 3, 5, 4, 0, 4, 1, 6, 63}},
	{"cancel-interleaved", []byte{0, 0, 4, 0, 0, 0, 4, 0, 6, 10, 0, 0, 4, 1, 7, 2}},
	{"cancel-mixed-delays", []byte{3, 31, 2, 31, 1, 31, 0, 31, 5, 2, 5, 1, 5, 0, 6, 63, 6, 63}},
	// A lone far event drains on its own.
	{"far-drain", []byte{3, 255, 7, 3}},
	// Run(until) stops short of a far event; At into [until, next) then
	// goes into the wheel and must fire first, in insertion order.
	{"run-then-behind-base", []byte{3, 255, 6, 10, 0, 5, 0, 5, 2, 3, 7, 3, 7, 3}},
	{"far-run-then-behind-base", []byte{3, 255, 6, 150, 0, 5, 0, 5, 7, 3}},
	{"run-stops-between", []byte{3, 100, 3, 200, 6, 130, 0, 3, 2, 50, 7, 3, 7, 3}},
	// A NextAt peek at a far event, then earlier At calls.
	{"nextat-then-earlier", []byte{3, 255, 8, 0, 5, 2, 200, 0, 1, 8, 7, 3, 7, 3}},
	// Mixed delays interleaved with cancels and a far run window.
	{"mixed-levels", []byte{0, 9, 3, 70, 3, 255, 2, 200, 4, 1, 6, 255, 7, 3}},
	// Idle gap then reschedule on an empty engine.
	{"idle-gap", []byte{0, 5, 7, 0, 3, 130, 7, 0, 0, 5, 7, 3}},
	// Instants from 2^40 ns up to 2^62 ns; two events share 2^62+22, and
	// the clock then works near 2^62.
	{"high-levels", []byte{9, 22, 9, 0, 9, 10, 9, 22, 8, 0, 1, 7, 1, 6, 200, 7, 3, 0, 5, 9, 1, 7, 3, 7, 3}},
	// Bursts of same-instant events whose stamps and tags tie and
	// interleave with untagged ones.
	{"tagged-ties", []byte{10, 0x2D, 0x01, 0x81, 0x00, 0x05, 0x02, 10, 0x2B, 0x03, 0x80, 0x0C, 0, 5, 7, 3, 7, 3}},
	{"compact-same-instant", compactSeq()},
	// Delays wheelSize-2, wheelSize-1 (the last wheel slot) and
	// wheelSize, wheelSize+1 (the far heap's first instants); then, one
	// nanosecond later, wheelSize-1 again, which ties the far entry filed
	// at wheelSize.
	{"wheel-horizon", []byte{12, 3, 0x80, 12, 4, 0x80, 12, 5, 0x80, 12, 2, 0x80, 0, 1, 7, 0, 12, 3, 0x80, 12, 4, 0x80, 7, 3, 7, 3}},
	// Clock at wheelSize-2, just below a multiple of 2^15: entries due
	// before the wrap (slots 32766, 32767), after it (slots 0, 3, ...),
	// the furthest wheel entry (slot 32765, just behind the clock's own
	// slot), and a far entry in the clock's own slot.
	{"wheel-wrap", []byte{12, 2, 0x80, 7, 0, 0, 5, 0, 2, 0, 1, 0, 0, 2, 100, 12, 3, 0x80, 12, 4, 0x80, 8, 7, 3, 7, 3, 7, 3}},
	// A far entry later tied, at the same instant, by a wheel entry, under
	// every (insertion stamp, tag) order.
	{"wheel-far-ties", farTiesSeq()},
	// A lone entry wheelSize-1 ahead of an empty wheel, at clocks 0 and
	// 7: the peek finds it through the summary bitmap, the second time
	// wrapped round into the clock's own word.
	{"wheel-lone-under-horizon", []byte{12, 3, 0x80, 8, 7, 0, 0, 7, 7, 0, 12, 3, 0x80, 8, 7, 0}},
	// Run(until) jumps the clock with an empty wheel and a non-empty far
	// heap; entries filed after the jump go into the wheel and the far
	// heap relative to the new clock.
	{"wheel-run-jump-far-only", []byte{3, 255, 9, 5, 6, 100, 0, 3, 12, 3, 0x80, 12, 4, 0x01, 6, 200, 8, 7, 3, 7, 3}},
	// Cancels in the middle of slot lists, then compaction.
	{"wheel-mid-slot-compact", midSlotCompactSeq()},
}

func TestEngineModelDirected(t *testing.T) {
	for _, d := range directedSeqs {
		if err := runEngineModel(d.seq); err != nil {
			t.Errorf("%s %v: %v", d.name, d.seq, err)
		}
	}
}

// slotLen returns the length of wheel slot s's list.
func slotLen(e *Engine, s int) int {
	tail := e.slots[s]
	if tail == 0 {
		return 0
	}
	n := 1
	for i := e.nodes[tail].next; i != tail; i = e.nodes[i].next {
		n++
	}
	return n
}

// Compaction must unlink cancelled entries from inside a long slot list,
// keep the survivors in (ins, seq) order, and return the freed nodes to
// the pool.
func TestCompactionWithinWheelSlot(t *testing.T) {
	eng := NewEngine()
	var fired []int
	var evs []*Event
	for k := 0; k < 30; k++ {
		for j := 0; j < 3; j++ {
			id := len(evs)
			evs = append(evs, eng.AtTagged(0, 0, uint16(2-j), func() { fired = append(fired, id) }))
		}
		id := len(evs)
		evs = append(evs, eng.Schedule(Time(k)*257, func() { fired = append(fired, id) }))
	}
	if n := slotLen(eng, 0); n != 91 {
		t.Fatalf("slot 0 holds %d entries, want 91", n)
	}
	for _, ev := range evs[:61] {
		eng.Cancel(ev)
	}
	if eng.Pending() != len(evs)-61 || eng.nCancel != 0 {
		t.Fatalf("after 61 cancels: pending %d (want %d), %d cancelled left (want 0, compacted)",
			eng.Pending(), len(evs)-61, eng.nCancel)
	}
	if n := slotLen(eng, 0); n != 44 {
		t.Fatalf("slot 0 holds %d entries after compaction, want 44", n)
	}
	free := 0
	for i := eng.freeNode; i != 0; i = eng.nodes[i].next {
		free++
	}
	if free != 61 {
		t.Fatalf("%d nodes back in the pool, want 61", free)
	}
	eng.RunUntilIdle()
	// Survivors at t=0 fire tag 0 first (the j=2 slot of each group), then
	// tag 1, then tag 2, each in insertion order; the spread events follow.
	var want []int
	for tag := 0; tag < 3; tag++ {
		for id := 61; id < len(evs); id++ {
			if id%4 == 2-tag {
				want = append(want, id)
			}
		}
	}
	for id := 61; id < len(evs); id++ {
		if id%4 == 3 {
			want = append(want, id)
		}
	}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v\nwant  %v", fired, want)
	}
	if eng.occ != [occWords]uint64{} || eng.sum != [sumWords]uint64{} {
		t.Fatal("occupancy bitmap not empty after the drain")
	}
}
