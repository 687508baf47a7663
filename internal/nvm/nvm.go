// Package nvm models byte-addressable non-volatile memory fronted by a
// volatile cache, as used by HyperLoop's durability argument (§4.2,
// gFLUSH).
//
// RDMA WRITEs land in the NIC/CPU cache hierarchy and are acknowledged
// before reaching the durable medium; only a flush (triggered in HyperLoop
// by a 0-byte RDMA READ to the same address) commits them. A power failure
// (Crash) discards everything unflushed. The model keeps one image — the
// current view — plus the set of dirty ranges, exact to the byte, and the
// pre-image of every dirty byte: the durable value a crash restores. A
// clean byte's durable value is its current one, so nothing more is kept,
// and tests can assert exactly which bytes survive a crash. The image is
// a table of 4 KiB pages that exist only once the model stores into them,
// so a device costs host memory in proportion to what it touches, not to
// its size. A pre-image page a device no longer needs goes to its Bank,
// which hands it to the next device on the bank that needs one: devices
// built on one bank hold as many pre-image pages as they have dirty at
// once, not the sum of each device's worst moment.
//
// A device may be non-volatile only in a prefix (SetDurablePrefix): the
// bytes past it are ordinary host memory, which stores reach without any
// bookkeeping, a flush never covers, and a crash zeroes. A device is
// durable throughout until a prefix is declared. The device knows nothing
// of what its bytes hold; the layout of a NIC's memory is protocol.Host's.
package nvm

import (
	"bytes"
	"fmt"
	"slices"
)

// pageSize is the granularity at which a device allocates its pages.
const pageSize = 4096

type page [pageSize]byte

// zeroPage is what every absent page reads as; nothing writes it.
var zeroPage page

// Bank is the spare list of pre-image pages that the devices built on it
// share: a page a flush or crash frees on one device becomes the next
// pre-image page any of them takes. It allocates a page only when no
// spare one is left, so the pages it has made are the most its devices
// held at once. A bank is used only from the single-threaded simulation
// context its devices run in and needs no locking; devices driven from
// different goroutines must be on different banks. The zero Bank is empty
// and ready to use.
type Bank struct {
	spare []*page // pre-image pages no device page holds, reused before allocating
	pages int     // pre-image pages made on the bank, held by a device or spare
}

// Spare returns the pre-image pages on the spare list.
func (b *Bank) Spare() int { return len(b.spare) }

// Device is one node's non-volatile memory. It is used only from
// simulation (single-threaded) context and needs no locking.
//
// A page of pre holds the durable value of each dirty byte of that page;
// its other bytes are stale and never read. A dirty byte whose page has no
// pre-image page has durable value zero. A pre-image page is taken from the
// bank when a store first makes a non-zero durable byte of its page dirty,
// and goes back to the bank's spare list when a flush or crash leaves the
// page with no dirty byte.
type Device struct {
	name     string
	size     int
	durable  int     // bytes [0, durable) are non-volatile, the rest volatile
	current  []*page // latest view: durable bytes overlaid with cached writes
	pre      []*page // pre-images of dirty bytes; a page here has one in current
	bank     *Bank   // where pre-image pages come from and go back to
	curPages int     // allocated pages of current
	prePages int     // pages of pre held, taken from the bank
	dirty    RangeSet
	view     []byte // holds the last Slice that crossed a page boundary

	writes  int64
	flushes int64
	crashes int64
}

// NewDevice returns a zeroed device of the given size in bytes, durable
// throughout, on a bank of its own. No page exists until the model stores
// into it.
func NewDevice(name string, size int) *Device { return new(Bank).NewDevice(name, size) }

// NewDevice returns a zeroed device of the given size in bytes, durable
// throughout, that takes its pre-image pages from b. No page exists until
// the model stores into it.
func (b *Bank) NewDevice(name string, size int) *Device {
	pages := (size + pageSize - 1) / pageSize
	return &Device{name: name, size: size, durable: size, current: make([]*page, pages), pre: make([]*page, pages), bank: b}
}

// SetDurablePrefix declares [0, n) the device's non-volatile memory and
// the rest volatile; n is clamped to [0, Size()]. Dirty bytes past n are
// dropped as they stand: the current image keeps them, but no flush will
// commit them and a crash zeroes them. A volatile byte the prefix takes in
// is clean, its current value durable.
func (d *Device) SetDurablePrefix(n int) {
	d.durable = min(max(n, 0), d.size)
	d.clean(d.durable, d.size)
}

// get returns page p of table t, or the zero page when it is absent.
func get(t []*page, p int) *page {
	if t[p] == nil {
		return &zeroPage
	}
	return t[p]
}

// touch returns current page p, allocating it on first use.
func (d *Device) touch(p int) *page {
	if d.current[p] == nil {
		d.current[p] = new(page)
		d.curPages++
	}
	return d.current[p]
}

// readImage copies the current image at off into buf.
func (d *Device) readImage(off int, buf []byte) {
	for n := 0; n < len(buf); {
		n += copy(buf[n:], get(d.current, (off+n)/pageSize)[(off+n)%pageSize:])
	}
}

// dirtied marks the durable part of a store over [lo, hi) dirty, saving
// the pre-images it needs first; the caller then stores into current.
// Bytes past the durable prefix are volatile and need neither.
func (d *Device) dirtied(lo, hi int) {
	if hi = min(hi, d.durable); lo < hi {
		i, j := d.dirty.span(lo, hi)
		d.save(i, j, lo, hi)
		d.dirty.merge(i, j, lo, hi)
	}
}

// save records the pre-images a store over [lo, hi) needs, before it
// overwrites current. d.dirty.rs[i:j] are the dirty ranges that overlap or
// touch [lo, hi) (RangeSet.span); the bytes between them are clean, and a
// clean byte's durable value is its current one.
func (d *Device) save(i, j, lo, hi int) {
	at := lo
	for _, r := range d.dirty.rs[i:j] {
		if r.Lo > at {
			d.saveClean(lo, at, r.Lo)
		}
		at = max(at, r.Hi)
	}
	if at < hi {
		d.saveClean(lo, at, hi)
	}
}

// saveClean copies the clean bytes [a, b) of a store that starts at lo into
// their pre-image pages. Nothing is recorded for an absent current page, or
// for zero bytes of a page that has no pre-image page, since a dirty byte
// there has durable value zero already.
func (d *Device) saveClean(lo, a, b int) {
	for a < b {
		p, o := a/pageSize, a%pageSize
		c := min(b-a, pageSize-o)
		if cur := d.current[p]; cur != nil {
			pre := d.pre[p]
			if pre == nil && !bytes.Equal(cur[o:o+c], zeroPage[:c]) {
				pre = d.takePre(p, max(lo, p*pageSize), a)
			}
			if pre != nil {
				copy(pre[o:o+c], cur[o:o+c])
			}
		}
		a += c
	}
}

// takePre gives page p a pre-image page, a spare one of the bank's when
// there is one. Every byte of page p that is dirty, or that the store in
// progress made dirty in [zlo, zhi) without recording it, has durable
// value zero; a spare page holds stale bytes of whichever device used it
// last, so exactly those are cleared. The rest of it stays stale: clearing
// all 4 KiB on every reuse made BenchmarkDeviceRewriteFlush, the kv log's
// wrap, ~15 % slower.
func (d *Device) takePre(p, zlo, zhi int) *page {
	d.prePages++
	b := d.bank
	n := len(b.spare)
	if n == 0 {
		b.pages++
		d.pre[p] = new(page)
		return d.pre[p]
	}
	pg := b.spare[n-1]
	b.spare[n-1] = nil
	b.spare = b.spare[:n-1]
	base := p * pageSize
	clear(pg[zlo-base : zhi-base])
	i, j := d.dirty.overlap(base, base+pageSize)
	for _, r := range d.dirty.rs[i:j] {
		clear(pg[max(r.Lo, base)-base : min(r.Hi, base+pageSize)-base])
	}
	d.pre[p] = pg
	return pg
}

// release hands page p's pre-image page, if any, to the bank's spare list.
func (d *Device) release(p int) {
	if pg := d.pre[p]; pg != nil {
		d.bank.spare = append(d.bank.spare, pg)
		d.pre[p] = nil
		d.prePages--
	}
}

// Name returns the device's diagnostic name.
func (d *Device) Name() string { return d.name }

// Size returns the capacity in bytes.
func (d *Device) Size() int { return d.size }

// BoundsError reports an out-of-range access.
type BoundsError struct {
	Device string
	Off    int
	Len    int
	Size   int
}

func (e *BoundsError) Error() string {
	return fmt.Sprintf("nvm %s: access [%d, %d) out of bounds (size %d)",
		e.Device, e.Off, e.Off+e.Len, e.Size)
}

func (d *Device) check(off, n int) error {
	if off < 0 || n < 0 || off > d.size-n { // off+n may overflow
		return &BoundsError{Device: d.name, Off: off, Len: n, Size: d.size}
	}
	return nil
}

// Write stores data at off in the volatile cache. The bytes are visible to
// subsequent reads but not durable until flushed. data must not be a view
// of this device: Copy moves bytes within it.
func (d *Device) Write(off int, data []byte) error {
	if err := d.check(off, len(data)); err != nil || len(data) == 0 {
		return err
	}
	d.dirtied(off, off+len(data))
	for n := 0; n < len(data); {
		n += copy(d.touch((off + n) / pageSize)[(off+n)%pageSize:], data[n:])
	}
	d.writes++
	return nil
}

// Copy moves n bytes from src to dst in the volatile cache with memmove
// semantics, as one write of the destination. It allocates only pages it
// stores into for the first time.
func (d *Device) Copy(dst, src, n int) error {
	if err := d.check(src, n); err != nil {
		return err
	}
	if err := d.check(dst, n); err != nil || n == 0 {
		return err
	}
	d.dirtied(dst, dst+n)
	// Piece by piece, each inside one source and one destination page, back
	// to front when dst lies past src, so no piece reads what one wrote.
	for k := 0; k < n; {
		at := k // the piece's offset into both ranges
		c := min(n-k, pageSize-(dst+k)%pageSize, pageSize-(src+k)%pageSize)
		if dst > src {
			c = min(n-k, (dst+n-k-1)%pageSize+1, (src+n-k-1)%pageSize+1)
			at = n - k - c
		}
		s, t := src+at, dst+at
		copy(d.touch(t / pageSize)[t%pageSize:t%pageSize+c], get(d.current, s/pageSize)[s%pageSize:])
		k += c
	}
	d.writes++
	return nil
}

// Read copies the current view (durable + cached) at off into buf.
func (d *Device) Read(off int, buf []byte) error {
	if err := d.check(off, len(buf)); err != nil {
		return err
	}
	d.readImage(off, buf)
	return nil
}

// ReadDurable copies only the durable image at off into buf; it shows what
// a post-crash recovery would see: the current image with each dirty byte's
// pre-image laid over it, and zeros past the durable prefix.
func (d *Device) ReadDurable(off int, buf []byte) error {
	if err := d.check(off, len(buf)); err != nil {
		return err
	}
	d.readImage(off, buf)
	if end := off + len(buf); end > d.durable {
		clear(buf[max(d.durable, off)-off:])
	}
	i, j := d.dirty.overlap(off, off+len(buf))
	for _, r := range d.dirty.rs[i:j] {
		for a, b := max(r.Lo, off), min(r.Hi, off+len(buf)); a < b; {
			p, o := a/pageSize, a%pageSize
			a += copy(buf[a-off:b-off], get(d.pre, p)[o:])
		}
	}
	return nil
}

// Slice returns a read-only view of the current image, which callers must
// not mutate. A range inside one page is viewed in place (an absent page
// through the shared zero page); a range that crosses a page boundary is
// assembled in a buffer the device owns, so that view is valid only until
// the next Slice on this device. Either is valid at most until the caller
// yields to the kernel.
func (d *Device) Slice(off, n int) ([]byte, error) {
	if err := d.check(off, n); err != nil {
		return nil, err
	}
	if p, o := off/pageSize, off%pageSize; p < len(d.current) && o+n <= pageSize {
		return get(d.current, p)[o : o+n : o+n], nil
	}
	d.view = slices.Grow(d.view[:0], n)[:n]
	d.readImage(off, d.view)
	return d.view[:n:n], nil
}

// Flush commits all dirty bytes intersecting [off, off+n) to the durable
// image and returns the number of bytes flushed; bytes past the durable
// prefix are never dirty, so it covers only the prefix.
func (d *Device) Flush(off, n int) (int, error) {
	if err := d.check(off, n); err != nil {
		return 0, err
	}
	flushed := d.clean(off, off+n)
	if flushed > 0 {
		d.flushes++
	}
	return flushed, nil
}

// clean makes every dirty byte in [off, end) clean and returns how many
// there were. It copies nothing: a clean byte's durable value is its
// current one. A page it leaves with no dirty byte hands its pre-image
// page to the bank.
func (d *Device) clean(off, end int) int {
	flushed := 0
	i, j := d.dirty.overlap(off, end)
	for _, r := range d.dirty.rs[i:j] {
		lo, hi := max(r.Lo, off), min(r.Hi, end)
		flushed += hi - lo
		for p := lo / pageSize; p*pageSize < hi; p++ {
			// Page p keeps a dirty byte only if one lies outside [off, end).
			if base := p * pageSize; d.pre[p] != nil &&
				!d.dirty.any(base, min(off, base+pageSize)) && !d.dirty.any(max(end, base), base+pageSize) {
				d.release(p)
			}
		}
	}
	d.dirty.cut(i, j, off, end)
	return flushed
}

// FlushAll commits every dirty byte.
func (d *Device) FlushAll() int {
	n, _ := d.Flush(0, d.size)
	return n
}

// Crash simulates power loss: all unflushed writes are discarded and the
// current view reverts to the durable image. Only the dirty ranges differ
// from it, so only they are restored, each from its pre-image; the
// volatile bytes past the durable prefix are zeroed in their pages.
func (d *Device) Crash() {
	for _, r := range d.dirty.rs {
		for a := r.Lo; a < r.Hi; {
			p, o := a/pageSize, a%pageSize
			a += copy(d.current[p][o:min(pageSize, o+r.Hi-a)], get(d.pre, p)[o:])
		}
	}
	for p := range d.pre {
		d.release(p)
	}
	d.dirty.Clear()
	for a := d.durable; a < d.size; a += pageSize - a%pageSize {
		if pg := d.current[a/pageSize]; pg != nil {
			clear(pg[a%pageSize:])
		}
	}
	d.crashes++
}

// DirtyBytes returns the number of bytes written but not yet durable.
func (d *Device) DirtyBytes() int { return d.dirty.Total() }

// ResidentBytes returns the bytes held in the device's allocated current
// pages and in the pre-image pages it holds now. Spare pages are the
// bank's, not the device's, so they are not counted here: a page one
// device frees may be the next that another takes.
func (d *Device) ResidentBytes() int { return (d.curPages + d.prePages) * pageSize }

// Pages returns the device's allocated current pages and the pre-image
// pages it holds now.
func (d *Device) Pages() (current, preImage int) { return d.curPages, d.prePages }

// Stats reports operation counts.
func (d *Device) Stats() (writes, flushes, crashes int64) {
	return d.writes, d.flushes, d.crashes
}

// Range is a half-open interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// RangeSet maintains sorted, disjoint, non-adjacent ranges, exact to the
// byte. The zero value is an empty set. Every operation binary-searches to
// the ranges it overlaps and edits the backing slice in place, so its cost
// is O(log ranges + ranges overlapped) plus the shift when the number of
// ranges changes, and it allocates only to grow the slice.
type RangeSet struct {
	rs []Range
}

// search returns the index of the first range with Hi >= x, or len(s.rs).
// Every Write and every Flush pays it, so the loop is written
// out: slices.BinarySearchFunc's comparison callback measured 15-25 %
// slower on BenchmarkDeviceWriteScatter.
func (s *RangeSet) search(x int) int {
	i, j := 0, len(s.rs)
	for i < j {
		m := int(uint(i+j) >> 1)
		if s.rs[m].Hi < x {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// overlap returns the run s.rs[i:j] of ranges sharing a byte with [lo, hi).
func (s *RangeSet) overlap(lo, hi int) (i, j int) {
	if hi <= lo {
		return 0, 0
	}
	i = s.search(lo + 1)
	j = i
	for j < len(s.rs) && s.rs[j].Lo < hi {
		j++
	}
	return i, j
}

// any reports whether some byte of [lo, hi) is in the set.
func (s *RangeSet) any(lo, hi int) bool {
	i, j := s.overlap(lo, hi)
	return i < j
}

// Insert adds [lo, hi), merging with overlapping or adjacent ranges. A
// range already covered merges into itself: one element rewritten, no shift.
func (s *RangeSet) Insert(lo, hi int) {
	if hi <= lo {
		return
	}
	i, j := s.span(lo, hi)
	s.merge(i, j, lo, hi)
}

// span returns the run s.rs[i:j] of ranges that overlap or touch [lo, hi),
// which must not be empty: the ranges Insert merges it with.
func (s *RangeSet) span(lo, hi int) (i, j int) {
	i = s.search(lo) // first range that overlaps or touches [lo, hi) on the left
	j = i
	for j < len(s.rs) && s.rs[j].Lo <= hi {
		j++
	}
	return i, j
}

// merge adds [lo, hi) given its run s.rs[i:j] from span.
func (s *RangeSet) merge(i, j, lo, hi int) {
	if i == j {
		s.rs = slices.Insert(s.rs, i, Range{lo, hi})
		return
	}
	s.rs[i] = Range{min(lo, s.rs[i].Lo), max(hi, s.rs[j-1].Hi)}
	s.rs = slices.Delete(s.rs, i+1, j)
}

// Remove deletes [lo, hi) from the set, splitting ranges as needed.
func (s *RangeSet) Remove(lo, hi int) {
	i, j := s.overlap(lo, hi)
	s.cut(i, j, lo, hi)
}

// cut removes [lo, hi) given its overlapping run s.rs[i:j]: the run is
// replaced by what its first range keeps below lo and its last above hi.
func (s *RangeSet) cut(i, j, lo, hi int) {
	if i == j {
		return
	}
	var keep [2]Range
	n := 0
	if first := s.rs[i]; first.Lo < lo {
		keep[n] = Range{first.Lo, lo}
		n++
	}
	if last := s.rs[j-1]; last.Hi > hi {
		keep[n] = Range{hi, last.Hi}
		n++
	}
	s.rs = slices.Replace(s.rs, i, j, keep[:n]...)
}

// Intersect returns the portions of the set inside [lo, hi).
func (s *RangeSet) Intersect(lo, hi int) []Range {
	i, j := s.overlap(lo, hi)
	if i == j {
		return nil
	}
	out := make([]Range, j-i)
	for k, r := range s.rs[i:j] {
		out[k] = Range{max(r.Lo, lo), min(r.Hi, hi)}
	}
	return out
}

// Contains reports whether every byte of [lo, hi) is in the set.
func (s *RangeSet) Contains(lo, hi int) bool {
	if hi <= lo {
		return true
	}
	i := s.search(lo + 1)
	return i < len(s.rs) && s.rs[i].Lo <= lo && hi <= s.rs[i].Hi
}

// Total returns the number of bytes covered.
func (s *RangeSet) Total() int {
	n := 0
	for _, r := range s.rs {
		n += r.Hi - r.Lo
	}
	return n
}

// Clear empties the set, keeping its storage for reuse.
func (s *RangeSet) Clear() { s.rs = s.rs[:0] }

// Ranges returns a copy of the ranges in ascending order.
func (s *RangeSet) Ranges() []Range {
	return slices.Clone(s.rs)
}
