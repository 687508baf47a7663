package nvm

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	d := NewDevice("test", 1024)
	data := []byte("hello, nvm")
	if err := d.Write(100, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, len(data))
	if err := d.Read(100, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read back %q, want %q", buf, data)
	}
}

func TestDurabilityAcrossCrash(t *testing.T) {
	d := NewDevice("test", 1024)
	flushed := []byte("durable")
	lost := []byte("volatile")
	if err := d.Write(0, flushed); err != nil {
		t.Fatal(err)
	}
	if n := d.FlushAll(); n != len(flushed) {
		t.Fatalf("flushed %d bytes, want %d", n, len(flushed))
	}
	if err := d.Write(100, lost); err != nil {
		t.Fatal(err)
	}
	if d.DirtyBytes() != len(lost) {
		t.Fatalf("dirty = %d, want %d", d.DirtyBytes(), len(lost))
	}

	d.Crash()

	buf := make([]byte, len(flushed))
	if err := d.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, flushed) {
		t.Fatalf("flushed data lost: %q", buf)
	}
	buf2 := make([]byte, len(lost))
	if err := d.Read(100, buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2, make([]byte, len(lost))) {
		t.Fatalf("unflushed data survived crash: %q", buf2)
	}
	if d.DirtyBytes() != 0 {
		t.Fatal("dirty bytes after crash")
	}
}

func TestPartialFlush(t *testing.T) {
	d := NewDevice("test", 1024)
	if err := d.Write(0, bytes.Repeat([]byte{0xAA}, 200)); err != nil {
		t.Fatal(err)
	}
	// Flush only the first 100 bytes.
	if n, err := d.Flush(0, 100); err != nil || n != 100 {
		t.Fatalf("flush: n=%d err=%v", n, err)
	}
	d.Crash()
	buf := make([]byte, 200)
	if err := d.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if buf[i] != 0xAA {
			t.Fatalf("flushed byte %d lost", i)
		}
	}
	for i := 100; i < 200; i++ {
		if buf[i] != 0 {
			t.Fatalf("unflushed byte %d survived", i)
		}
	}
}

func TestReadDurableSeesOnlyFlushed(t *testing.T) {
	d := NewDevice("test", 64)
	if err := d.Write(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if err := d.ReadDurable(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatalf("durable view shows unflushed data: %v", buf)
	}
	d.FlushAll()
	if err := d.ReadDurable(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Fatalf("durable view missing flushed data: %v", buf)
	}
}

func TestBoundsErrors(t *testing.T) {
	d := NewDevice("test", 64)
	var be *BoundsError
	if err := d.Write(60, make([]byte, 8)); !errors.As(err, &be) {
		t.Fatalf("write OOB err = %v, want BoundsError", err)
	}
	if err := d.Read(-1, make([]byte, 1)); !errors.As(err, &be) {
		t.Fatalf("negative read err = %v", err)
	}
	if _, err := d.Flush(0, 100); !errors.As(err, &be) {
		t.Fatalf("flush OOB err = %v", err)
	}
	if _, err := d.Slice(63, 2); !errors.As(err, &be) {
		t.Fatalf("slice OOB err = %v", err)
	}
	// off+len wraps past math.MaxInt, so a check of the sum would pass.
	if err := d.Write(math.MaxInt-3, make([]byte, 8)); !errors.As(err, &be) || be.Off != math.MaxInt-3 {
		t.Fatalf("write at MaxInt-3 err = %v", err)
	}
	if be.Error() == "" {
		t.Fatal("empty error message")
	}
}

// TestDurablePrefix: past the declared prefix the device is volatile host
// memory. A write across the boundary dirties only its durable part,
// FlushAll commits that part alone, a crash keeps the prefix and zeroes
// the rest, and ReadDurable reads the tail as zero all along. Declaring a
// smaller prefix drops the dirt past it, and a stale pre-image with it.
func TestDurablePrefix(t *testing.T) {
	const size, prefix = 3 * pageSize, pageSize + 100
	d := NewDevice("test", size)
	d.SetDurablePrefix(prefix)
	data := bytes.Repeat([]byte{0xAB}, 300)
	if err := d.Write(prefix-100, data); err != nil {
		t.Fatal(err)
	}
	if got := d.DirtyBytes(); got != 100 {
		t.Fatalf("dirty = %d after a write across the boundary, want the 100 durable bytes", got)
	}
	if err := d.Write(2*pageSize, data); err != nil { // wholly volatile
		t.Fatal(err)
	}
	if w, _, _ := d.Stats(); w != 2 || d.DirtyBytes() != 100 {
		t.Fatalf("writes %d dirty %d: a volatile store is counted but never dirty", w, d.DirtyBytes())
	}
	durable := make([]byte, 300)
	if err := d.ReadDurable(prefix-100, durable); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(durable, make([]byte, 300)) {
		t.Fatalf("durable view before the flush: %v", durable)
	}
	if n := d.FlushAll(); n != 100 {
		t.Fatalf("FlushAll flushed %d bytes, want the 100 durable ones", n)
	}
	if err := d.ReadDurable(prefix-100, durable); err != nil {
		t.Fatal(err)
	}
	if want := append(bytes.Repeat([]byte{0xAB}, 100), make([]byte, 200)...); !bytes.Equal(durable, want) {
		t.Fatalf("durable view after the flush: %v", durable)
	}
	d.Crash()
	got := make([]byte, 300)
	if err := d.Read(prefix-100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, durable) {
		t.Fatalf("after the crash: %v, want the prefix kept and the rest zeroed", got)
	}
	if err := d.Read(2*pageSize, got); err != nil || !bytes.Equal(got, make([]byte, 300)) {
		t.Fatalf("volatile page after the crash: %v (%v)", got, err)
	}

	// Rewrite flushed prefix bytes (they take a pre-image), then shrink the
	// prefix below them: they become volatile, clean, and keep their value.
	if err := d.Write(prefix-100, bytes.Repeat([]byte{0xCD}, 100)); err != nil {
		t.Fatal(err)
	}
	d.SetDurablePrefix(pageSize)
	if d.DirtyBytes() != 0 {
		t.Fatalf("dirty = %d after shrinking the prefix, want 0", d.DirtyBytes())
	}
	if err := d.Read(prefix-100, got[:100]); err != nil || !bytes.Equal(got[:100], bytes.Repeat([]byte{0xCD}, 100)) {
		t.Fatalf("shrinking the prefix changed the current image: %v (%v)", got[:100], err)
	}
	if n := d.FlushAll(); n != 0 {
		t.Fatalf("FlushAll flushed %d volatile bytes", n)
	}
	d.SetDurablePrefix(-1) // clamped: nothing is durable
	d.Crash()
	if err := d.Read(pageSize-100, got); err != nil || !bytes.Equal(got, make([]byte, 300)) {
		t.Fatalf("a crash with no durable prefix kept %v (%v)", got, err)
	}
}

func TestRangeSetInsertMerge(t *testing.T) {
	var s RangeSet
	s.Insert(10, 20)
	s.Insert(30, 40)
	s.Insert(15, 35) // bridges both
	rs := s.Ranges()
	if len(rs) != 1 || rs[0] != (Range{10, 40}) {
		t.Fatalf("ranges = %v, want [{10 40}]", rs)
	}
	s.Insert(40, 50) // adjacent merges
	rs = s.Ranges()
	if len(rs) != 1 || rs[0] != (Range{10, 50}) {
		t.Fatalf("ranges = %v, want [{10 50}]", rs)
	}
	if s.Total() != 40 {
		t.Fatalf("total = %d", s.Total())
	}
}

func TestRangeSetRemoveSplit(t *testing.T) {
	var s RangeSet
	s.Insert(0, 100)
	s.Remove(40, 60)
	rs := s.Ranges()
	if len(rs) != 2 || rs[0] != (Range{0, 40}) || rs[1] != (Range{60, 100}) {
		t.Fatalf("ranges = %v", rs)
	}
	if s.Contains(30, 50) {
		t.Fatal("Contains includes removed span")
	}
	if !s.Contains(0, 40) || !s.Contains(60, 100) {
		t.Fatal("Contains misses present span")
	}
}

func TestRangeSetIntersect(t *testing.T) {
	var s RangeSet
	s.Insert(0, 10)
	s.Insert(20, 30)
	got := s.Intersect(5, 25)
	if len(got) != 2 || got[0] != (Range{5, 10}) || got[1] != (Range{20, 25}) {
		t.Fatalf("intersect = %v", got)
	}
	if s.Intersect(12, 18) != nil {
		t.Fatal("intersect of gap should be empty")
	}
}

func TestRangeSetEmptyOps(t *testing.T) {
	var s RangeSet
	s.Insert(5, 5)  // empty insert
	s.Remove(0, 10) // remove from empty
	if s.Total() != 0 {
		t.Fatal("empty ops changed set")
	}
	if !s.Contains(3, 3) {
		t.Fatal("empty interval not contained")
	}
}

// rsOp is one step of a RangeSet workload over the byte domain [0, 256).
type rsOp struct {
	Insert bool
	Lo, Hi uint8
}

// span returns o's interval with its ends in order.
func (o rsOp) span() (lo, hi int) {
	lo, hi = int(o.Lo), int(o.Hi)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

// applyRSOp runs o against the set and the boolean reference model.
func applyRSOp(s *RangeSet, model []bool, o rsOp) {
	lo, hi := o.span()
	if o.Insert {
		s.Insert(lo, hi)
	} else {
		s.Remove(lo, hi)
	}
	for i := lo; i < hi; i++ {
		model[i] = o.Insert
	}
}

// matchesModel reports whether s covers exactly the true bytes of model
// with sorted, non-empty, non-adjacent (hence maximal) ranges.
func matchesModel(s *RangeSet, model []bool) bool {
	total := 0
	for _, b := range model {
		if b {
			total++
		}
	}
	if s.Total() != total {
		return false
	}
	prev := -1
	for _, r := range s.Ranges() {
		if r.Lo <= prev || r.Hi <= r.Lo {
			return false
		}
		prev = r.Hi
		for i := r.Lo; i < r.Hi; i++ {
			if !model[i] {
				return false
			}
		}
	}
	return true
}

// rsScripts drive each in-place path of Insert and Remove by name; the
// random and fuzzed workloads reach them only by chance.
var rsScripts = map[string][]rsOp{
	"contained insert": {
		{true, 10, 20}, {true, 12, 18}, {true, 10, 20}, {true, 10, 11}, {true, 19, 20},
	},
	"single-range merge": {
		{true, 10, 20}, {true, 15, 25}, {true, 5, 12}, {true, 25, 30}, {true, 0, 5}, {true, 0, 40},
	},
	"multi-range merge": {
		{true, 10, 20}, {true, 30, 40}, {true, 50, 60}, {true, 70, 80}, {true, 90, 100},
		{true, 35, 55}, {true, 20, 30}, {true, 60, 90},
	},
	"insert at both ends": {
		{true, 100, 110}, {true, 0, 5}, {true, 250, 255}, {true, 120, 130}, {true, 50, 60},
		{true, 7, 9}, {true, 240, 248},
	},
	"remove that splits": {
		{true, 0, 100}, {false, 40, 60}, {false, 10, 20}, {false, 70, 80},
	},
	"remove across ranges": {
		{true, 0, 10}, {true, 20, 30}, {true, 40, 50}, {true, 60, 70}, {true, 80, 90},
		{false, 25, 65}, {false, 0, 10}, {false, 85, 200}, {false, 12, 18}, {false, 5, 255},
	},
}

// TestRangeSetModelProperty checks the RangeSet against a naive boolean
// array model after every step of scripted and random insert/remove
// sequences.
func TestRangeSetModelProperty(t *testing.T) {
	f := func(ops []rsOp) bool {
		var s RangeSet
		model := make([]bool, 256)
		for _, o := range ops {
			applyRSOp(&s, model, o)
			if !matchesModel(&s, model) {
				return false
			}
		}
		return true
	}
	for name, ops := range rsScripts {
		if !f(ops) {
			t.Errorf("%s: set diverged from model", name)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRangeSetIntersectContainsProperty extends the bitmap-model property
// to the read-side operations, over the scripted workloads (queried around
// every endpoint they use) and random ones.
func TestRangeSetIntersectContainsProperty(t *testing.T) {
	type query struct{ Lo, Hi uint8 }
	f := func(ops []rsOp, qs []query) bool {
		var s RangeSet
		model := make([]bool, 256)
		for _, o := range ops {
			applyRSOp(&s, model, o)
		}
		for _, q := range qs {
			lo, hi := rsOp{Lo: q.Lo, Hi: q.Hi}.span()
			covered, all := 0, true
			for i := lo; i < hi; i++ {
				if model[i] {
					covered++
				} else {
					all = false
				}
			}
			if s.Contains(lo, hi) != all {
				return false
			}
			got := 0
			prev := lo - 1
			for _, r := range s.Intersect(lo, hi) {
				if r.Lo <= prev || r.Hi <= r.Lo || r.Lo < lo || r.Hi > hi {
					return false
				}
				prev = r.Hi
				got += r.Hi - r.Lo
				for i := r.Lo; i < r.Hi; i++ {
					if !model[i] {
						return false
					}
				}
			}
			if got != covered {
				return false
			}
		}
		return true
	}
	for name, ops := range rsScripts {
		var pts []uint8
		for _, o := range ops {
			for _, p := range []uint8{o.Lo, o.Hi} {
				pts = append(pts, p-1, p, p+1)
			}
		}
		var qs []query
		for _, a := range pts {
			for _, b := range pts {
				qs = append(qs, query{a, b})
			}
		}
		if !f(ops, qs) {
			t.Errorf("%s: Intersect/Contains diverged from model", name)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRangeSetModel decodes insert/remove ops from the input, three bytes
// each, and compares the set with the boolean model after every op.
func FuzzRangeSetModel(f *testing.F) {
	for _, ops := range rsScripts {
		var raw []byte
		for _, o := range ops {
			kind := byte(0)
			if o.Insert {
				kind = 1
			}
			raw = append(raw, kind, o.Lo, o.Hi)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s RangeSet
		model := make([]bool, 256)
		for i := 0; i+2 < len(raw); i += 3 {
			o := rsOp{Insert: raw[i]&1 == 1, Lo: raw[i+1], Hi: raw[i+2]}
			applyRSOp(&s, model, o)
			if !matchesModel(&s, model) {
				t.Fatalf("op %d %+v: ranges %v diverge from model", i/3, o, s.Ranges())
			}
			lo, hi := o.span()
			if s.Contains(lo, hi) != o.Insert && lo < hi {
				t.Fatalf("op %d %+v: Contains = %v", i/3, o, !o.Insert)
			}
		}
	})
}

// scatteredDevice returns a device holding benchSlots disjoint written and
// dirty 1 KiB ranges 2 KiB apart — the document store's slot pattern — and
// the payload that wrote them.
func scatteredDevice(tb testing.TB) (*Device, []byte) {
	tb.Helper()
	d := NewDevice("scatter", benchSlots*benchStride)
	data := make([]byte, benchValue)
	for i := 0; i < benchSlots; i++ {
		if err := d.Write(i*benchStride, data); err != nil {
			tb.Fatal(err)
		}
	}
	if got := len(d.dirty.rs); got != benchSlots {
		tb.Fatalf("%d dirty ranges resident, want %d", got, benchSlots)
	}
	return d, data
}

// TestWriteFlushSteadyStateAllocs pins the cost contract of the write
// path: once a device's ranges are resident, neither re-writing one nor a
// write+flush cycle over it allocates, however many ranges the device
// holds — not even when the write must record pre-images.
func TestWriteFlushSteadyStateAllocs(t *testing.T) {
	d, data := scatteredDevice(t)
	const off = 1000 * benchStride
	if n := testing.AllocsPerRun(100, func() {
		_ = d.Write(off, data)
	}); n != 0 {
		t.Errorf("Write into a resident range: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = d.Write(off, data)
		if f, _ := d.Flush(off, len(data)); f != len(data) {
			t.Fatalf("flushed %d bytes, want %d", f, len(data))
		}
	}); n != 0 {
		t.Errorf("Write+Flush cycle: %v allocs/op, want 0", n)
	}
	// Rewriting flushed non-zero bytes records their pre-images in a page
	// that each flush leaves clean, so it goes to the bank and the next
	// write takes it back: the kv log's wrap. Slots 2000 and 2001 fill one
	// page.
	const at = 2000 * benchStride
	rewrite := bytes.Repeat([]byte{0xA5}, benchValue)
	if err := d.Write(at, rewrite); err != nil {
		t.Fatal(err)
	}
	if f, _ := d.Flush(at, pageSize); f != 2*benchValue {
		t.Fatalf("flushed %d bytes, want %d", f, 2*benchValue)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = d.Write(at, rewrite)
		if f, _ := d.Flush(at, len(rewrite)); f != len(rewrite) {
			t.Fatalf("flushed %d bytes, want %d", f, len(rewrite))
		}
	}); n != 0 {
		t.Errorf("rewrite-of-flushed-bytes+Flush cycle: %v allocs/op, want 0", n)
	}
	if got, want := d.DirtyBytes(), (benchSlots-3)*benchValue; got != want {
		t.Errorf("DirtyBytes = %d, want %d", got, want)
	}
	if got, want := d.ResidentBytes(), benchSlots*benchStride; got != want {
		t.Errorf("ResidentBytes = %d, want %d (every current page, no pre-image held)", got, want)
	}
	if d.bank.pages != 1 || d.bank.Spare() != 1 {
		t.Errorf("bank made %d pre-image pages, %d spare; want 1 page, spare", d.bank.pages, d.bank.Spare())
	}
	// A gMEMCPY and a view that each straddle a page boundary.
	src, dst := 1001*benchStride+1536, 1003*benchStride+1536
	if n := testing.AllocsPerRun(100, func() {
		_ = d.Copy(dst, src, benchValue)
		if v, _ := d.Slice(src, benchValue); len(v) != benchValue {
			t.Fatalf("straddling view is %d bytes, want %d", len(v), benchValue)
		}
	}); n != 0 {
		t.Errorf("straddling Copy+Slice: %v allocs/op, want 0", n)
	}
}

func TestCrashWriteFlushProperty(t *testing.T) {
	// Property: after any sequence of writes with some flushed, a crash
	// preserves exactly the flushed prefix state.
	f := func(vals []uint8) bool {
		d := NewDevice("p", 256)
		for i, v := range vals {
			off := int(v)
			_ = d.Write(off%200, []byte{v})
			if i%3 == 0 {
				_, _ = d.Flush(off%200, 1)
			}
		}
		snapshot := make([]byte, 256)
		_ = d.ReadDurable(0, snapshot)
		d.Crash()
		after := make([]byte, 256)
		_ = d.Read(0, after)
		return bytes.Equal(snapshot, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	d := NewDevice("s", 64)
	_ = d.Write(0, []byte{1})
	d.FlushAll()
	d.Crash()
	w, f, c := d.Stats()
	if w != 1 || f != 1 || c != 1 {
		t.Fatalf("stats = %d,%d,%d", w, f, c)
	}
}
