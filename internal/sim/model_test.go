package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// This file model-checks the production engine (radix heap, lazy
// cancellation, free-list recycling) against an obviously-correct reference:
// an unsorted slice scanned for the (time, stamp, tag, seq) minimum, with
// Cancel as immediate removal. Random operation sequences — Schedule,
// AtTagged, Cancel, Run, Step, NextAt — must produce identical firing order,
// identical clocks, identical peeks, and identical executed counts.
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
		switch op % 12 {
		case 0, 1, 2, 3: // schedule
			db, _ := nextByte()
			// Three delay regimes: tiny delays force same-time ties in
			// bucket 0, mid delays land in the low radix buckets, and
			// case-3 delays reach into higher ones, so redistribution
			// cascades through several levels before an event fires.
			var d Time
			switch {
			case op%12 == 3:
				d = Time(db) * 8191 // 0 .. ~2.1 ms
			case op%12 == 2:
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
		case 8: // NextAt peek: pulls the base forward without moving the clock
			at, ok := eng.NextAt()
			var want Time
			if len(ref.evs) > 0 {
				want = ref.evs[ref.min()].at
			}
			if ok != (len(ref.evs) > 0) || at != want {
				return fmt.Errorf("op %d: NextAt() = %d, %v, reference %d, %v", i, at, ok, want, len(ref.evs) > 0)
			}
		case 9: // far instant: 2^40 ns .. 2^62 ns plus a low offset, so the
			// top radix levels fill and later cascade
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
				tag := uint16(tb % 4)
				if tb&0x80 != 0 {
					tag = TagNone
				}
				stamp := now - Time(tb>>2&3)
				if stamp < 0 {
					stamp = 0
				}
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

// compactSeq fills bucket 0 with 90 same-instant tagged ties, spreads 30
// more events over the low buckets, then cancels just over half of them so
// compaction runs while bucket 0's heap is non-empty.
func compactSeq() []byte {
	var s []byte
	for k := 0; k < 30; k++ {
		s = append(s, 10, 0x07, byte(k), byte(k)|0x80, 3, 2, byte(k))
	}
	return append(s, 11, 1, 4, 0, 7, 3, 6, 200)
}

// directedSeqs are operation sequences aimed at the radix heap's edges;
// each is also checked in as a FuzzEngine corpus entry under its name.
var directedSeqs = []struct {
	name string
	seq  []byte
}{
	{"empty", []byte{}},
	{"ties", []byte{0, 0, 0, 0, 0, 0, 7, 3}},
	{"schedule-cancel-run", []byte{0, 5, 1, 5, 2, 5, 3, 5, 4, 0, 4, 1, 6, 63}},
	{"cancel-interleaved", []byte{0, 0, 4, 0, 0, 0, 4, 0, 6, 10, 0, 0, 4, 1, 7, 2}},
	{"cancel-mixed-delays", []byte{3, 31, 2, 31, 1, 31, 0, 31, 5, 2, 5, 1, 5, 0, 6, 63, 6, 63}},
	// A lone far event drains through one redistribution.
	{"far-drain", []byte{3, 255, 7, 3}},
	// Run(until) stops short of the next event: its peek has already
	// moved the base there, so At into [until, next) lands behind the
	// base and must still fire first, in insertion order.
	{"run-then-behind-base", []byte{3, 255, 6, 10, 0, 5, 0, 5, 2, 3, 7, 3, 7, 3}},
	{"far-run-then-behind-base", []byte{3, 255, 6, 150, 0, 5, 0, 5, 7, 3}},
	{"run-stops-between", []byte{3, 100, 3, 200, 6, 130, 0, 3, 2, 50, 7, 3, 7, 3}},
	// A NextAt peek moves the base to the next event; earlier At calls
	// then go behind it.
	{"nextat-then-earlier", []byte{3, 255, 8, 0, 5, 2, 200, 0, 1, 8, 7, 3, 7, 3}},
	// Mixed delays interleaved with cancels and a far run window.
	{"mixed-levels", []byte{0, 9, 3, 70, 3, 255, 2, 200, 4, 1, 6, 255, 7, 3}},
	// Idle gap then reschedule on an empty engine.
	{"idle-gap", []byte{0, 5, 7, 0, 3, 130, 7, 0, 0, 5, 7, 3}},
	// Instants from 2^40 ns up to 2^62 ns fill the top radix levels; two
	// events share 2^62+22, and the clock then works near 2^62.
	{"high-levels", []byte{9, 22, 9, 0, 9, 10, 9, 22, 8, 0, 1, 7, 1, 6, 200, 7, 3, 0, 5, 9, 1, 7, 3, 7, 3}},
	// Bursts of same-instant events whose stamps and tags tie and
	// interleave with untagged ones.
	{"tagged-ties", []byte{10, 0x2D, 0x01, 0x81, 0x00, 0x05, 0x02, 10, 0x2B, 0x03, 0x80, 0x0C, 0, 5, 7, 3, 7, 3}},
	{"compact-with-bucket0", compactSeq()},
}

func TestEngineModelDirected(t *testing.T) {
	for _, d := range directedSeqs {
		if err := runEngineModel(d.seq); err != nil {
			t.Errorf("%s %v: %v", d.name, d.seq, err)
		}
	}
}

// Compaction with same-instant ties in bucket 0 must filter and re-heapify
// bucket 0 along with the unordered higher buckets.
func TestCompactionWithBucketZero(t *testing.T) {
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
	if len(eng.buckets[0]) == 0 {
		t.Fatal("same-instant events did not land in bucket 0")
	}
	for _, ev := range evs[:61] {
		eng.Cancel(ev)
	}
	if eng.Pending() != len(evs)-61 || len(eng.buckets[0]) == 0 {
		t.Fatalf("after 61 cancels: pending %d (want %d, compacted), bucket 0 holds %d",
			eng.Pending(), len(evs)-61, len(eng.buckets[0]))
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
}
