package sim

import (
	"fmt"
	"runtime/debug"

	"hyperloop/internal/ring"
)

// Fiber is a cooperative coroutine driven by the kernel. Exactly one of the
// kernel loop or a single fiber runs at any moment (the one-runner
// invariant; see the package documentation), so fiber code can use ordinary
// sequential style (Sleep, Await) while the whole simulation stays
// deterministic.
//
// Fibers exist so that client logic — a storage front end issuing a
// transaction, a YCSB worker — reads top-to-bottom instead of as a chain of
// completion callbacks.
//
// A fiber's body runs on a pooled runner goroutine behind a channel
// rendezvous with the kernel goroutine. A *Fiber handle is only valid until
// the body it was passed to returns; retaining it past exit observes an
// unrelated, recycled fiber.
type Fiber struct {
	k      *Kernel
	name   string
	ctl    chan struct{} // rendezvous: strictly alternating kernel <-> runner
	fn     func(*Fiber)  // body for the current spawn; nil retires the runner
	exited bool
	dead   bool   // body panicked; kernel re-raises and discards the runner
	pan    any    // recovered panic value
	stack  []byte // runner stack captured at the panic site

	// Cached method-value closures: allocated once per fiber, reused for
	// every spawn and every park/unpark, so the hot path is allocation-free.
	dispatchFn func()
	startFn    func()
}

// Spawn starts fn as a fiber at the current instant. fn runs until it
// blocks (Sleep/Await) or returns; control then returns to the kernel.
//
// The fiber gets a pooled runner goroutine up front (FiberStarts counts the
// creations). If fn panics, the panic is re-raised in kernel context —
// inside the Run that dispatched the fiber — with the fiber's stack trace
// attached.
func (k *Kernel) Spawn(name string, fn func(f *Fiber)) {
	f := k.getFiber()
	f.name = name
	f.fn = fn
	k.AfterFunc(0, f.startFn, nil)
}

// getFiber takes a parked runner from the pool or creates one.
func (k *Kernel) getFiber() *Fiber {
	if n := len(k.fiberFree); n > 0 {
		f := k.fiberFree[n-1]
		k.fiberFree[n-1] = nil
		k.fiberFree = k.fiberFree[:n-1]
		f.exited = false
		return f
	}
	f := &Fiber{k: k, ctl: make(chan struct{})}
	f.dispatchFn = f.dispatch
	f.startFn = func() {
		k.fibers++
		f.dispatch()
	}
	k.fiberStarts++
	go f.run()
	return f
}

// releaseFiber parks an exited fiber's runner on the free list. Reset
// happens on reuse (getFiber/Spawn), not here, so diagnostics taken right
// after exit still see the name.
func (k *Kernel) releaseFiber(f *Fiber) {
	k.fiberFree = append(k.fiberFree, f)
}

// drainFiberPool retires every pooled runner goroutine. Called when a
// top-level Run returns, so an abandoned kernel never leaks parked
// goroutines; the next Run simply repopulates the pool on demand.
func (k *Kernel) drainFiberPool() {
	for i, f := range k.fiberFree {
		f.fn = nil // already nil; explicit for the retire contract
		f.ctl <- struct{}{}
		k.fiberFree[i] = nil
	}
	k.fiberFree = k.fiberFree[:0]
}

// run is the runner goroutine's loop: park until dispatched, execute one
// fiber body, hand control back, repeat. A nil fn is the retire token from
// drainFiberPool. A panicking body is caught so the kernel (parked in
// dispatch) can re-raise it in simulation context instead of crashing the
// process from an anonymous goroutine.
func (f *Fiber) run() {
	defer func() {
		if p := recover(); p != nil {
			f.pan = p
			f.stack = debug.Stack()
			f.dead = true
			f.exited = true
			f.k.fibers--
			f.ctl <- struct{}{} // wake the kernel; runner goroutine exits
		}
	}()
	for {
		<-f.ctl
		fn := f.fn
		f.fn = nil
		if fn == nil {
			return // retired by drainFiberPool
		}
		fn(f)
		f.exited = true
		f.k.fibers--
		f.ctl <- struct{}{}
	}
}

// dispatch transfers control into the fiber and blocks until it yields or
// exits. It must be called from kernel (event) context. The send unparks
// the runner; the receive parks the kernel — one rendezvous each way.
func (f *Fiber) dispatch() {
	f.ctl <- struct{}{}
	<-f.ctl
	if f.exited && !f.dead {
		f.k.releaseFiber(f)
	}
	if f.dead {
		panic(fmt.Sprintf("sim: fiber %q panicked: %v\n%s", f.name, f.pan, f.stack))
	}
}

// pause transfers control back to the kernel and blocks until resumed. It
// must be called from fiber context.
func (f *Fiber) pause() {
	f.ctl <- struct{}{}
	<-f.ctl
}

// Name returns the fiber's diagnostic name.
func (f *Fiber) Name() string { return f.name }

// Kernel returns the owning kernel.
func (f *Fiber) Kernel() *Kernel { return f.k }

// Now returns the current virtual time.
func (f *Fiber) Now() Time { return f.k.Now() }

// Sleep blocks the fiber for virtual duration d.
func (f *Fiber) Sleep(d Duration) {
	f.k.AfterFunc(d, f.dispatchFn, nil)
	f.pause()
}

// Await blocks the fiber until s fires and returns the signal's error. If s
// already fired it returns immediately.
func (f *Fiber) Await(s *Signal) error {
	if !s.fired {
		s.subscribe(f.dispatchFn)
		f.pause()
	}
	s.awaited = true
	return s.err
}

// AwaitAll blocks until every signal has fired and returns the first
// non-nil error among them (in argument order).
func (f *Fiber) AwaitAll(sigs ...*Signal) error {
	var firstErr error
	for _, s := range sigs {
		if err := f.Await(s); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Signal is a one-shot completion notification. Fire may be called from
// kernel or fiber context; waiters resume synchronously, in subscription
// order, before Fire returns. The zero value is unfired; its first waiter
// is held inline, so a signal one fiber awaits never allocates.
type Signal struct {
	fired   bool
	awaited bool // an Await has returned after the fire
	err     error
	first   func()
	waiters []func() // every waiter after first
}

// NewSignal returns an unfired signal.
func NewSignal() *Signal { return &Signal{} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Awaited reports whether an Await has returned the fired signal's error —
// how the owner of a recycled signal knows its holder is done with it.
func (s *Signal) Awaited() bool { return s.awaited }

// Err returns the error the signal fired with (nil before firing).
func (s *Signal) Err() error { return s.err }

func (s *Signal) subscribe(fn func()) {
	if s.first == nil {
		s.first = fn
		return
	}
	s.waiters = append(s.waiters, fn)
}

// Fire marks the signal complete and wakes all waiters. A signal fires at
// most once: calling Fire on an already-fired signal is a logic error in
// the caller and is deliberately ignored — the signal keeps the error (or
// nil) from the first Fire, no waiter runs twice, and err from the second
// call is dropped. Waiters subscribing after the fire are run immediately
// by Await instead.
func (s *Signal) Fire(err error) {
	if s.fired {
		return
	}
	s.fired = true
	s.err = err
	first, ws := s.first, s.waiters
	s.first, s.waiters = nil, nil
	if first != nil {
		first()
	}
	for _, w := range ws {
		w()
	}
}

// String describes the signal state for debugging.
func (s *Signal) String() string {
	if !s.fired {
		return "signal(pending)"
	}
	return fmt.Sprintf("signal(fired err=%v)", s.err)
}

// Mutex is a cooperative mutual-exclusion lock for fibers. Waiters are
// granted the lock in strict FIFO order: Unlock never releases a contended
// lock but hands it directly to the oldest waiter (no barging), so a
// convoy drains in arrival order. The waiter queue is a ring buffer, so
// Lock and Unlock are O(1) regardless of convoy length.
//
// The zero value is an unlocked mutex ready for use.
type Mutex struct {
	locked  bool
	waiters ring.Ring[*Signal]
}

// Lock blocks the fiber until the mutex is acquired.
func (m *Mutex) Lock(f *Fiber) {
	if !m.locked {
		m.locked = true
		return
	}
	s := NewSignal()
	m.waiters.PushBack(s)
	_ = f.Await(s)
}

// Unlock releases the mutex, handing it to the oldest waiter if any.
func (m *Mutex) Unlock() {
	if m.waiters.Len() == 0 {
		m.locked = false
		return
	}
	m.waiters.PopFront().Fire(nil) // lock stays held, ownership transfers
}

// Locked reports whether the mutex is held.
func (m *Mutex) Locked() bool { return m.locked }
