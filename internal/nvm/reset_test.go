package nvm

import (
	"bytes"
	"testing"
	"testing/quick"
)

// devOp is one step of a random device workload; see applyOp.
type devOp struct {
	Kind uint8
	Off  uint16
	Len  uint8
	Val  uint8
}

// applyOp interprets o against d and returns the observable result (flush
// count, or -1 for non-flush ops) so two devices can be compared op by op.
func applyOp(d *Device, o devOp) int {
	off := int(o.Off) % d.Size()
	n := int(o.Len)%64 + 1
	if off+n > d.Size() {
		n = d.Size() - off
	}
	switch o.Kind % 4 {
	case 0, 1:
		_ = d.Write(off, bytes.Repeat([]byte{o.Val}, n))
	case 2:
		f, _ := d.Flush(off, n)
		return f
	case 3:
		d.Crash()
	}
	return -1
}

// sameState compares every observable of two devices: the full current and
// durable images (via Read/ReadDurable), the dirty and resident footprints,
// and the op counters.
func sameState(t *testing.T, a, b *Device) bool {
	t.Helper()
	if a.Size() != b.Size() {
		return false
	}
	ca, cb := make([]byte, a.Size()), make([]byte, b.Size())
	if err := a.Read(0, ca); err != nil {
		t.Fatal(err)
	}
	if err := b.Read(0, cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		return false
	}
	if err := a.ReadDurable(0, ca); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadDurable(0, cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		return false
	}
	if a.DirtyBytes() != b.DirtyBytes() || a.ResidentBytes() != b.ResidentBytes() {
		return false
	}
	aw, af, ac := a.Stats()
	bw, bf, bc := b.Stats()
	return aw == bw && af == bf && ac == bc
}

// TestDeviceResetEqualsFresh is the pooling soundness property: a device
// that ran an arbitrary workload and was Reset must be indistinguishable
// from a fresh device through any subsequent workload — same reads, same
// durable views, same Flush return values.
func TestDeviceResetEqualsFresh(t *testing.T) {
	f := func(first, second []devOp) bool {
		used := NewDevice("used", 512)
		for _, o := range first {
			applyOp(used, o)
		}
		used.Reset()
		fresh := NewDevice("fresh", 512)
		if !sameState(t, used, fresh) {
			return false
		}
		for _, o := range second {
			if applyOp(used, o) != applyOp(fresh, o) {
				return false
			}
		}
		return sameState(t, used, fresh)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResetZeroesOnlyWritten pins the cost model: Reset drops the current
// and pre-image pages the device allocated, not 2x the device size.
func TestResetZeroesOnlyWritten(t *testing.T) {
	d := NewDevice("r", 1<<20)
	if err := d.Write(100, bytes.Repeat([]byte{1}, 50)); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(120, bytes.Repeat([]byte{2}, 100)); err != nil { // overlaps: union is [100,220)
		t.Fatal(err)
	}
	if _, err := d.Flush(0, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(2*pageSize-10, bytes.Repeat([]byte{3}, 20)); err != nil { // pages 1 and 2, unflushed
		t.Fatal(err)
	}
	if got, want := d.ResidentBytes(), 3*pageSize; got != want {
		t.Fatalf("ResidentBytes = %d, want %d (three current pages)", got, want)
	}
	if err := d.Write(150, bytes.Repeat([]byte{4}, 10)); err != nil { // over flushed non-zero bytes
		t.Fatal(err)
	}
	if got, want := d.ResidentBytes(), 4*pageSize; got != want {
		t.Fatalf("ResidentBytes = %d, want %d (three current pages, one pre-image)", got, want)
	}
	if got, want := d.Reset(), 4*pageSize; got != want {
		t.Fatalf("Reset dropped %d bytes, want %d", got, want)
	}
	if d.ResidentBytes() != 0 || d.DirtyBytes() != 0 {
		t.Fatalf("footprints after reset: resident=%d dirty=%d", d.ResidentBytes(), d.DirtyBytes())
	}
	if got := d.Reset(); got != 0 {
		t.Fatalf("second Reset dropped %d bytes, want 0", got)
	}
}

// TestResetClearsFlushedAndCrashed covers the subtle path: bytes that were
// flushed or crash-restored still sit in allocated pages, so Reset must
// clear both the current image and the durable one.
func TestResetClearsFlushedAndCrashed(t *testing.T) {
	d := NewDevice("fc", 256)
	if err := d.Write(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	d.FlushAll()
	if err := d.Write(10, []byte{4, 5}); err != nil {
		t.Fatal(err)
	}
	d.Crash() // current now mirrors durable: {1,2,3} at 0, zeros at 10
	d.Reset()
	buf := make([]byte, 16)
	if err := d.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatalf("current image not zeroed: %v", buf)
	}
	if err := d.ReadDurable(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatalf("durable image not zeroed: %v", buf)
	}
}

// TestRangeSetIntersectContainsProperty extends the bitmap-model property
// to the read-side operations Reset and Flush depend on, over the scripted
// workloads (queried around every endpoint they use) and random ones.
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

// FuzzDeviceReset drives a device with a fuzzer-chosen workload, resets
// it, and requires equivalence with a fresh device under a second
// fuzzer-chosen workload.
func FuzzDeviceReset(f *testing.F) {
	f.Add([]byte{0, 0, 10, 3, 7}, []byte{2, 0, 10})
	f.Add([]byte{1, 0, 200, 63, 255, 3, 0, 0, 0}, []byte{0, 0, 5, 8, 1})
	f.Fuzz(func(t *testing.T, first, second []byte) {
		decode := func(raw []byte) []devOp {
			var ops []devOp
			for i := 0; i+4 < len(raw); i += 5 {
				ops = append(ops, devOp{
					Kind: raw[i],
					Off:  uint16(raw[i+1])<<8 | uint16(raw[i+2]),
					Len:  raw[i+3],
					Val:  raw[i+4],
				})
			}
			return ops
		}
		used := NewDevice("used", 4096)
		for _, o := range decode(first) {
			applyOp(used, o)
		}
		used.Reset()
		fresh := NewDevice("fresh", 4096)
		for _, o := range decode(second) {
			if a, b := applyOp(used, o), applyOp(fresh, o); a != b {
				t.Fatalf("op %+v diverged: reset=%d fresh=%d", o, a, b)
			}
		}
		if !sameState(t, used, fresh) {
			t.Fatal("reset device state differs from fresh device")
		}
	})
}

// TestDevicePoolReuse checks the pool's core contract: Put+Get of a
// matching size reuses the reset device under the new name, other sizes
// allocate fresh, and the counters record the split.
func TestDevicePoolReuse(t *testing.T) {
	var p DevicePool
	d1 := p.Get("a", 1024)
	if err := d1.Write(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	p.Put(d1)
	if p.Idle() != 1 {
		t.Fatalf("idle = %d, want 1", p.Idle())
	}
	d2 := p.Get("b", 1024)
	if d2 != d1 {
		t.Fatal("same-size Get did not reuse the pooled device")
	}
	if d2.Name() != "b" {
		t.Fatalf("reused device name = %q, want %q", d2.Name(), "b")
	}
	if !sameState(t, d2, NewDevice("b", 1024)) {
		t.Fatal("reused device not fresh")
	}
	d3 := p.Get("c", 2048)
	if d3.Size() != 2048 {
		t.Fatalf("size = %d", d3.Size())
	}
	s := p.Stats()
	if s.Gets != 3 || s.Puts != 1 || s.Fresh != 2 || s.Reused != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Demand counts two full images per Get; the zeroing actually paid is
	// the one page d1's write allocated.
	if s.BytesDemand != 2*(1024+1024+2048) {
		t.Fatalf("BytesDemand = %d", s.BytesDemand)
	}
	if s.BytesZeroed != pageSize {
		t.Fatalf("BytesZeroed = %d", s.BytesZeroed)
	}
	p.Put(nil) // must be a no-op
	if p.Stats().Puts != 1 {
		t.Fatal("Put(nil) counted")
	}
}
