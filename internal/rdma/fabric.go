package rdma

import (
	"fmt"
	"math/bits"

	"hyperloop/internal/nvm"
	"hyperloop/internal/sim"
)

// Config sets the fabric's timing model. Defaults are calibrated to a
// 56 Gbps ConnectX-3-class deployment (DESIGN.md, "Calibration constants").
type Config struct {
	// PropDelay is the one-way propagation + switching delay per message.
	PropDelay sim.Duration
	// BandwidthBps is the link bandwidth in bits per second.
	BandwidthBps float64
	// JitterFrac scales random jitter on each message's latency (±frac).
	JitterFrac float64
	// WQEProc is the NIC's per-WQE processing cost.
	WQEProc sim.Duration
	// HeaderBytes models per-message transport header overhead.
	HeaderBytes int
	// CacheFlushBase is the fixed cost of flushing the NIC cache to NVM.
	CacheFlushBase sim.Duration
	// CacheFlushPerLine is the added cost per dirty 64-byte line flushed.
	CacheFlushPerLine sim.Duration
	// MemCopyBps is local memory bandwidth for MEMCPY, bytes per second.
	MemCopyBps float64
	// RNRRetryDelay is the back-off before retrying a SEND that found no
	// posted receive (receiver-not-ready).
	RNRRetryDelay sim.Duration
}

// ackTimeout bounds how long an issued remote operation may wait for its
// transport ACK/response. When the oldest pending op on a QP exceeds it,
// the QP flushes its pending window with error completions (StatusTimeout
// for the expired head, StatusFlushed behind it) instead of hanging the
// requester forever. The deadline timer is stopped whenever an ACK
// arrives in time, and a stopped timer never executes a kernel event, so
// in healthy runs the timeout is invisible to event counts, RNG draws and
// event ordering. It stands in for the InfiniBand transport's
// retry-count × local-ACK-timeout.
const ackTimeout = 5 * sim.Millisecond

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{
		PropDelay:         1 * sim.Microsecond,
		BandwidthBps:      56e9,
		JitterFrac:        0.05,
		WQEProc:           250 * sim.Nanosecond,
		HeaderBytes:       30,
		CacheFlushBase:    700 * sim.Nanosecond,
		CacheFlushPerLine: 1 * sim.Nanosecond,
		MemCopyBps:        8 * 8e9, // ~8 GB/s
		RNRRetryDelay:     10 * sim.Microsecond,
	}
}

// Fabric connects NICs through a latency/bandwidth-modelled network. All
// message delivery is FIFO per (source QP → destination QP) direction,
// matching reliable-connection ordering guarantees that HyperLoop's WAIT
// chains depend on (a WRITE posted before a SEND lands before it).
type Fabric struct {
	k    *sim.Kernel
	cfg  Config
	rng  *sim.RNG
	nics map[string]*NIC

	// bytesOnWire counts total payload+header bytes transmitted.
	bytesOnWire int64
	msgs        int64
	// cqes counts completion-queue entries delivered across all of the
	// fabric's CQs. Together with msgs/bytesOnWire these are the fabric's
	// owned counters: a trial's fabric reports exactly that trial's work,
	// so an arena can attribute it to the experiment that ran the trial.
	cqes int64

	// bufs recycles payload scratch buffers. The fabric is single-threaded
	// (one kernel), so no locking; buffers are returned once the responder
	// has applied the message or the requester has consumed the response.
	bufs *BufPool

	// wireFree recycles in-flight wire-message structs (see wireMsg).
	// Messages still in flight when a run is cut short are dropped with
	// the kernel's event queue and simply never return to the pool.
	wireFree []*wireMsg

	// Fault-injection state (see fault.go). faultRNG is forked from rng
	// only when a plan is installed, so plan-free runs draw the exact RNG
	// sequence they always did.
	faultLinks []LinkFault
	faultRNG   *sim.RNG
	faultStats FaultStats
}

// bufClasses covers scratch buffers up to 1<<(bufClasses-1) = 32 MB;
// larger requests fall through to plain allocation.
const bufClasses = 26

// BufPool recycles payload scratch buffers by power-of-two size class.
// Every fabric owns one. Buffer contents are undefined — every user
// overwrites them fully — so reuse never changes behaviour.
type BufPool struct {
	classes [bufClasses][][]byte
}

// get returns a length-n scratch buffer, reusing a pooled one when
// available. The contents are undefined; every user overwrites them fully.
func (p *BufPool) get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if c >= bufClasses {
		return make([]byte, n)
	}
	if l := len(p.classes[c]); l > 0 {
		b := p.classes[c][l-1]
		p.classes[c][l-1] = nil
		p.classes[c] = p.classes[c][:l-1]
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// put returns a scratch buffer to the pool. Only buffers with exact
// power-of-two capacity (the shape get produces) are kept, and the pool
// never shrinks, so a slice of that shape that did not come from get grows
// it for good: pass only buffers get returned.
func (p *BufPool) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	c := bits.Len(uint(cap(b))) - 1
	if 1<<c != cap(b) || c >= bufClasses {
		return
	}
	p.classes[c] = append(p.classes[c], b[:cap(b)])
}

func (f *Fabric) getBuf(n int) []byte { return f.bufs.get(n) }
func (f *Fabric) putBuf(b []byte)     { f.bufs.put(b) }

// getWire takes a wire-message struct from the pool or allocates one with
// its fire closure pre-built.
func (f *Fabric) getWire() *wireMsg {
	if n := len(f.wireFree); n > 0 {
		wm := f.wireFree[n-1]
		f.wireFree[n-1] = nil
		f.wireFree = f.wireFree[:n-1]
		return wm
	}
	wm := &wireMsg{f: f}
	wm.fireFn = wm.fire
	return wm
}

// putWire recycles a wire message whose payload has been handed on or
// returned, clearing the references it carried so pooled structs pin
// neither QPs nor payloads.
func (f *Fabric) putWire(wm *wireMsg) {
	wm.to, wm.dup = nil, false
	wm.msg.payload, wm.msg.src = nil, nil
	f.wireFree = append(f.wireFree, wm)
}

// release recycles a wire message together with its payload, unless the
// payload is the one a duplicate shares with its original (see wireMsg).
func (f *Fabric) release(wm *wireMsg) {
	if !wm.dup {
		f.putBuf(wm.msg.payload)
	}
	f.putWire(wm)
}

// normalize fills unset config fields with the calibrated defaults.
func (c Config) normalize() Config {
	if c.BandwidthBps <= 0 {
		c.BandwidthBps = DefaultConfig().BandwidthBps
	}
	if c.MemCopyBps <= 0 {
		c.MemCopyBps = DefaultConfig().MemCopyBps
	}
	if c.RNRRetryDelay <= 0 {
		c.RNRRetryDelay = DefaultConfig().RNRRetryDelay
	}
	return c
}

// NewFabric creates a fabric driven by kernel k.
func NewFabric(k *sim.Kernel, cfg Config) *Fabric {
	return &Fabric{
		k:    k,
		cfg:  cfg.normalize(),
		rng:  k.RNG().Fork(),
		nics: make(map[string]*NIC),
		bufs: &BufPool{},
	}
}

// Kernel returns the driving simulation kernel.
func (f *Fabric) Kernel() *sim.Kernel { return f.k }

// Config returns the fabric's timing configuration.
func (f *Fabric) Config() Config { return f.cfg }

// AddNIC attaches a NIC named host whose host memory is dev.
func (f *Fabric) AddNIC(host string, dev *nvm.Device) (*NIC, error) {
	if _, ok := f.nics[host]; ok {
		return nil, fmt.Errorf("rdma: duplicate NIC %q", host)
	}
	n := &NIC{
		fabric: f,
		host:   host,
		mem:    dev,
		mrs:    make(map[uint32]*MemoryRegion),
		qps:    make(map[uint32]*QP),
		cqs:    make(map[uint32]*CQ),
	}
	f.nics[host] = n
	return n, nil
}

// NIC returns the NIC named host, or nil.
func (f *Fabric) NIC(host string) *NIC { return f.nics[host] }

// xmitTime returns serialization delay for a payload of size bytes.
func (f *Fabric) xmitTime(size int) sim.Duration {
	bytes := float64(size + f.cfg.HeaderBytes)
	sec := bytes * 8 / f.cfg.BandwidthBps
	return sim.Duration(sec * 1e9)
}

// Stats reports fabric-wide transmission totals.
func (f *Fabric) Stats() (messages, bytes int64) { return f.msgs, f.bytesOnWire }

// CQEs reports the number of completion-queue entries delivered across
// all of the fabric's CQs.
func (f *Fabric) CQEs() int64 { return f.cqes }
