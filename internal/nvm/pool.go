package nvm

// PoolStats counts a DevicePool's allocation and reset work. BytesZeroed
// is the zeroing actually performed: the pages trials allocated (each is
// zero-filled when created), counted when Put drops them; BytesDemand is
// what two eager full-size images per Get would have zeroed, so
// BytesZeroed/BytesDemand is the fraction of setup zeroing that remains.
type PoolStats struct {
	Gets   int64
	Puts   int64
	Fresh  int64 // Gets served by a new allocation
	Reused int64 // Gets served from the pool

	BytesZeroed int64
	BytesDemand int64
}

// Sub returns the counter deltas s-o. Trial arenas snapshot a pool's
// stats around each trial and use the delta to attribute the trial's
// device work to the experiment that ran it.
func (s PoolStats) Sub(o PoolStats) PoolStats {
	return PoolStats{
		Gets:        s.Gets - o.Gets,
		Puts:        s.Puts - o.Puts,
		Fresh:       s.Fresh - o.Fresh,
		Reused:      s.Reused - o.Reused,
		BytesZeroed: s.BytesZeroed - o.BytesZeroed,
		BytesDemand: s.BytesDemand - o.BytesDemand,
	}
}

// DevicePool recycles Devices by exact size. Put resets a device to its
// freshly-allocated state (dropping the pages it allocated); Get hands it
// out again under a new name. The pool is used from one goroutine at a
// time (each experiment worker owns one) and needs no locking.
type DevicePool struct {
	bySize map[int][]*Device
	stats  PoolStats
}

// Get returns a zeroed device of the given size, reusing a pooled one
// when available.
func (p *DevicePool) Get(name string, size int) *Device {
	p.stats.Gets++
	p.stats.BytesDemand += 2 * int64(size)
	if devs := p.bySize[size]; len(devs) > 0 {
		d := devs[len(devs)-1]
		devs[len(devs)-1] = nil
		p.bySize[size] = devs[:len(devs)-1]
		d.name = name
		p.stats.Reused++
		return d
	}
	p.stats.Fresh++
	return NewDevice(name, size)
}

// Put resets d and returns it to the pool. The reset happens here, not on
// Get, so the pool's invariant is that every pooled device is
// indistinguishable from a fresh one.
func (p *DevicePool) Put(d *Device) {
	if d == nil {
		return
	}
	p.stats.Puts++
	p.stats.BytesZeroed += int64(d.Reset())
	if p.bySize == nil {
		p.bySize = make(map[int][]*Device)
	}
	p.bySize[d.Size()] = append(p.bySize[d.Size()], d)
}

// ForEachIdle calls fn for every pooled device; leak tests use it to
// assert the reset-on-Put invariant (every pooled device looks fresh).
func (p *DevicePool) ForEachIdle(fn func(*Device)) {
	for _, devs := range p.bySize {
		for _, d := range devs {
			fn(d)
		}
	}
}

// Idle returns the number of pooled devices.
func (p *DevicePool) Idle() int {
	n := 0
	for _, devs := range p.bySize {
		n += len(devs)
	}
	return n
}

// Stats returns the pool's cumulative counters.
func (p *DevicePool) Stats() PoolStats { return p.stats }
