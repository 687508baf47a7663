package nvm

import (
	"bytes"
	"errors"
	"testing"
)

// flatDevice is the reference FuzzDeviceModel holds Device to: two eager
// full-size images and a byte-exact dirty set, as Device was before page
// tables and pre-images, plus what ResidentBytes must count: which pages a
// store has reached in the current image, which pages hold a pre-image
// page, and the most that have held one at once. Bytes from prefix on are
// volatile: never dirty, zero in the durable image.
type flatDevice struct {
	current, durable  []byte
	prefix            int
	curPages, preHeld []bool
	preHigh           int
	dirty             RangeSet

	writes, flushes, crashes int64
}

func newFlatDevice(size int) *flatDevice {
	pages := (size + pageSize - 1) / pageSize
	return &flatDevice{
		current: make([]byte, size), durable: make([]byte, size), prefix: size,
		curPages: make([]bool, pages), preHeld: make([]bool, pages),
	}
}

func (m *flatDevice) inBounds(off, n int) bool {
	return off >= 0 && n >= 0 && off+n <= len(m.current)
}

func markPages(pages []bool, lo, hi int) {
	for p := lo / pageSize; p*pageSize < hi; p++ {
		pages[p] = true
	}
}

// store is Write and Copy: src is copied with memmove semantics. A page
// takes a pre-image page when the store makes dirty a byte whose durable
// value is non-zero, unless the page holds one already. Only the bytes
// before the prefix boundary become dirty.
func (m *flatDevice) store(off int, src []byte) {
	end := min(off+len(src), m.prefix)
	for b := off; b < end; b++ {
		if !m.dirty.Contains(b, b+1) && m.durable[b] != 0 {
			m.preHeld[b/pageSize] = true
		}
	}
	held := 0
	for _, h := range m.preHeld {
		if h {
			held++
		}
	}
	m.preHigh = max(m.preHigh, held)
	copy(m.current[off:], src)
	if len(src) > 0 {
		markPages(m.curPages, off, off+len(src))
		m.dirty.Insert(off, end)
		m.writes++
	}
}

func (m *flatDevice) flush(off, n int) int {
	flushed := 0
	for _, r := range m.dirty.Intersect(off, off+n) {
		copy(m.durable[r.Lo:r.Hi], m.current[r.Lo:r.Hi])
		flushed += r.Hi - r.Lo
	}
	m.dropDirt(off, off+n)
	if flushed > 0 {
		m.flushes++
	}
	return flushed
}

// dropDirt makes [lo, hi) clean; a page with no dirty byte left needs no
// pre-image.
func (m *flatDevice) dropDirt(lo, hi int) {
	m.dirty.Remove(lo, hi)
	for p := range m.preHeld {
		m.preHeld[p] = m.preHeld[p] && len(m.dirty.Intersect(p*pageSize, (p+1)*pageSize)) > 0
	}
}

// setPrefix moves the boundary: bytes it takes in are clean, their current
// value durable; bytes it gives up lose their dirt and read zero durably.
func (m *flatDevice) setPrefix(n int) {
	n = min(max(n, 0), len(m.current))
	if n > m.prefix {
		copy(m.durable[m.prefix:n], m.current[m.prefix:n])
	}
	clear(m.durable[n:])
	m.dropDirt(n, len(m.current))
	m.prefix = n
}

func (m *flatDevice) crash() {
	copy(m.current, m.durable) // zero past the prefix
	m.dirty.Clear()
	clear(m.preHeld)
	m.crashes++
}

// residentBytes is the current pages plus every pre-image page the device
// has allocated: a page it no longer needs waits on a spare list, so that
// is the most held at once.
func (m *flatDevice) residentBytes() int {
	n := m.preHigh * pageSize
	for _, c := range m.curPages {
		if c {
			n += pageSize
		}
	}
	return n
}

// modelOp is one decoded FuzzDeviceModel step. Offsets land within 128
// bytes of a quarter-page mark, so a page boundary is every fourth mark
// and most multi-hundred-byte ranges straddle one.
type modelOp struct {
	kind        byte
	off, src, n int
	val         byte
}

const modelOpSize = 7

// modelSize is deliberately not a multiple of pageSize: the last page is
// partly outside the device.
const modelSize = 3*pageSize + 1000

func decodeModelOp(b []byte) modelOp {
	at := func(mark, delta byte) int {
		return int(mark%16)*pageSize/4 + int(int8(delta))
	}
	n := int(b[5]) * 32
	if b[5]&1 == 1 {
		n = int(b[5] >> 1)
	}
	return modelOp{kind: b[0] % 8, off: at(b[1], b[2]), src: at(b[3], b[4]), n: n, val: b[6]}
}

// modelScripts name straddling sequences the fuzzer would otherwise reach
// only by chance; each op is {kind, mark, delta, srcMark, srcDelta, len, val}.
var modelScripts = map[string][][modelOpSize]byte{
	"write across the boundary, flush all, crash": {
		{7, 4, 0x40, 0, 0, 0, 0},  // durable prefix ends 64 bytes into page 1
		{0, 4, 0, 0, 0, 16, 0xAA}, // 512 bytes from page 1's start
		{0, 8, 0, 0, 0, 8, 0x55},  // 256 volatile bytes at page 2's start
		{4, 0, 0, 0, 0, 254, 0},   // flush everything written
		{5, 0, 0, 0, 0, 0, 0},     // the prefix stays, the rest zeroes
		{6, 4, 0, 0, 0, 16, 0},
	},
	"shrink the prefix under dirty bytes, then grow it back": {
		{0, 4, 0x80, 0, 0, 16, 0xAA}, // 512 bytes from 128 before page 1
		{4, 0, 0, 0, 0, 254, 0},      // flush them
		{0, 4, 0xC0, 0, 0, 8, 0x11},  // rewrite 256 from 64 before page 1: both pages take a pre-image
		{7, 4, 0, 0, 0, 0, 0},        // prefix at page 1: its dirt and pre-image go
		{3, 4, 0x20, 3, 0xF0, 8, 0},  // a copy from durable into volatile bytes
		{7, 13, 0, 0, 0, 0, 0},       // grow past the end: clamped, the volatile bytes now durable
		{5, 0, 0, 0, 0, 0, 0},
		{6, 4, 0x80, 0, 0, 16, 0},
	},
	"write, partial flush, crash across a boundary": {
		{0, 4, 0x80, 0, 0, 16, 0xAA}, // 512 bytes from 128 before page 1
		{4, 4, 0, 0, 0, 129, 0},      // flush 64 bytes from page 1's start
		{5, 0, 0, 0, 0, 0, 0},
		{6, 4, 0x80, 0, 0, 16, 0},
	},
	"rewrite flushed bytes across a boundary, partial flush, crash": {
		{0, 4, 0x80, 0, 0, 16, 0xAA}, // 512 bytes from 128 before page 1
		{4, 0, 0, 0, 0, 254, 0},      // flush them
		{0, 4, 0xC0, 0, 0, 8, 0x11},  // rewrite 256 from 64 before page 1: both pages take a pre-image
		{4, 4, 0xE0, 0, 0, 129, 0},   // flush the 64 bytes around page 1's start
		{6, 4, 0x80, 0, 0, 16, 0},
		{4, 4, 0xC0, 0, 0, 129, 0}, // flush the rest of page 0: its pre-image goes spare
		{5, 0, 0, 0, 0, 0, 0},
		{6, 4, 0x80, 0, 0, 16, 0},
	},
	"a spare's stale bytes under zero pre-images": {
		{0, 4, 0, 0, 0, 8, 0xAA},     // 256 bytes at page 1's start
		{0, 9, 0, 0, 0, 8, 0x55},     // 256 bytes a quarter into page 2
		{4, 0, 0, 0, 0, 254, 0},      // flush page 1
		{4, 8, 0, 0, 0, 128, 0},      // flush page 2
		{0, 4, 0, 0, 0, 8, 0x11},     // rewrite page 1's bytes: it takes a pre-image page
		{4, 4, 0, 0, 0, 8, 0},        // flush them: the page goes spare, its bytes stale
		{0, 8, 0, 0, 0, 2, 0x77},     // dirty over zeros at page 2's [0, 64): nothing recorded
		{0, 8, 0x60, 0, 0, 2, 0x33},  // and at [96, 160)
		{0, 8, 0x50, 0, 0, 66, 0x99}, // [80, 2192) over zeros, [96, 160), then the non-zero bytes
		{5, 0, 0, 0, 0, 0, 0},        // the spare's stale bytes at [0, 160) must not come back
		{6, 8, 0, 0, 0, 8, 0},
	},
	"overlapping copies both ways across a boundary": {
		{0, 3, 0, 0, 0, 64, 0x11},   // 2 KiB from 3/4 of page 0
		{3, 4, 0x10, 3, 0, 40, 0},   // forward-overlapping: dst past src
		{3, 3, 0, 4, 0x10, 40, 0},   // back again: dst before src
		{3, 8, 0xFE, 4, 0xFE, 9, 0}, // 4 bytes, each side straddling a boundary
		{2, 3, 0x40, 0, 0, 64, 0},
	},
	"copy from an absent page, then view absent pages": {
		{3, 4, 0xF0, 9, 0, 32, 0},
		{4, 0, 0, 0, 0, 254, 0},
		{1, 4, 0xF0, 0, 0, 32, 0},
		{2, 12, 0xF0, 0, 0, 32, 0}, // assembled from absent pages
		{2, 9, 0, 0, 0, 32, 0},     // in place, through the zero page
	},
	"out of bounds at the partial last page": {
		{0, 12, 0x70, 0, 0, 64, 1},
		{0, 12, 0x70, 0, 0, 27, 2},
		{3, 12, 0, 0, 0, 64, 0},
		{4, 12, 0x70, 0, 0, 64, 0},
		{1, 0, 0x80, 0, 0, 3, 0},
	},
}

// FuzzDeviceModel drives Device and flatDevice side by side through Write,
// Read, Slice, Copy, Flush, Crash, ReadDurable and SetDurablePrefix, and
// after every op compares the op's result and every observable: both
// images, the dirty and resident footprints, and the counters.
func FuzzDeviceModel(f *testing.F) {
	for _, ops := range modelScripts {
		var raw []byte
		for _, o := range ops {
			raw = append(raw, o[:]...)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, m := NewDevice("dev", modelSize), newFlatDevice(modelSize)
		img := make([]byte, modelSize)
		for i := 0; i+modelOpSize <= len(raw); i += modelOpSize {
			o := decodeModelOp(raw[i:])
			ok := m.inBounds(o.off, o.n)
			var err error
			switch o.kind {
			case 0: // Write
				data := make([]byte, o.n)
				for j := range data { // a ramp, so a misplaced byte shows
					data[j] = o.val + byte(j)
				}
				if err = d.Write(o.off, data); ok {
					m.store(o.off, data)
				}
			case 1, 6: // Read, ReadDurable
				buf := make([]byte, o.n)
				want := m.current
				if o.kind == 1 {
					err = d.Read(o.off, buf)
				} else {
					err, want = d.ReadDurable(o.off, buf), m.durable
				}
				if ok && !bytes.Equal(buf, want[o.off:o.off+o.n]) {
					t.Fatalf("op %d %+v: read diverged from the model", i/modelOpSize, o)
				}
			case 2: // Slice
				var v []byte
				v, err = d.Slice(o.off, o.n)
				if ok && (!bytes.Equal(v, m.current[o.off:o.off+o.n]) || cap(v) != o.n) {
					t.Fatalf("op %d %+v: view diverged from the model (cap %d)", i/modelOpSize, o, cap(v))
				}
			case 3: // Copy
				ok = ok && m.inBounds(o.src, o.n)
				if err = d.Copy(o.off, o.src, o.n); ok {
					m.store(o.off, m.current[o.src:o.src+o.n])
				}
			case 4: // Flush
				var got int
				if got, err = d.Flush(o.off, o.n); ok {
					if want := m.flush(o.off, o.n); got != want {
						t.Fatalf("op %d %+v: flushed %d bytes, model %d", i/modelOpSize, o, got, want)
					}
				}
			case 5:
				d.Crash()
				m.crash()
			case 7:
				d.SetDurablePrefix(o.off)
				m.setPrefix(o.off)
			}
			var be *BoundsError
			if (err != nil && !errors.As(err, &be)) || (o.kind != 5 && o.kind != 7 && ok != (err == nil)) {
				t.Fatalf("op %d %+v: err = %v, in bounds = %v", i/modelOpSize, o, err, ok)
			}
			if err := d.Read(0, img); err != nil || !bytes.Equal(img, m.current) {
				t.Fatalf("op %d %+v: current image diverged (%v)", i/modelOpSize, o, err)
			}
			if err := d.ReadDurable(0, img); err != nil || !bytes.Equal(img, m.durable) {
				t.Fatalf("op %d %+v: durable image diverged (%v)", i/modelOpSize, o, err)
			}
			if d.DirtyBytes() != m.dirty.Total() || d.ResidentBytes() != m.residentBytes() {
				t.Fatalf("op %d %+v: dirty %d resident %d, model %d %d", i/modelOpSize, o,
					d.DirtyBytes(), d.ResidentBytes(), m.dirty.Total(), m.residentBytes())
			}
			if w, fl, c := d.Stats(); w != m.writes || fl != m.flushes || c != m.crashes {
				t.Fatalf("op %d %+v: stats %d/%d/%d, model %d/%d/%d", i/modelOpSize, o,
					w, fl, c, m.writes, m.flushes, m.crashes)
			}
			if zeroPage != (page{}) {
				t.Fatalf("op %d %+v: the shared zero page was written", i/modelOpSize, o)
			}
		}
	})
}
