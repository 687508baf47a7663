// Package sim provides a deterministic discrete-event simulation kernel.
//
// All HyperLoop components — the RDMA fabric, the NVM devices, and the
// multi-tenant CPU scheduler — are driven by a single Kernel that advances a
// virtual clock. Events scheduled for the same instant fire in insertion
// order, so a run is bit-reproducible given the same seed.
//
// A Kernel is single-threaded, but independent Kernels are fully isolated
// and may run concurrently on separate goroutines — the property the
// parallel experiment runner (internal/experiments) exploits.
//
// # Event queue
//
// Events fire in the strict (time, seq) order whatever container holds
// them (queue.go). The nearest wait in a small 4-ary heap, the next
// 16.8 ms in a timing wheel of 1 024 slots, the rest in a second heap. A
// wheel slot is an intrusive doubly linked list through the pooled event
// structs, so the wheel owns no arrays and a steady-state run allocates
// nothing, and its events are sorted by the near heap they drain into
// before any of them can fire. Timer-less callbacks at the current
// instant skip the queue through a FIFO ring.
//
// The run loop pops the near heap bottom-up (see eventHeap.pop).
//
// # Fiber concurrency model
//
// Fibers let simulation logic block (Sleep, Await) in ordinary sequential
// style. Each fiber is backed by a goroutine — its "runner" — but the
// package is built on a single invariant:
//
// The one-runner invariant. At every moment, exactly one goroutine of a
// kernel is executing: either the kernel's event loop or one fiber runner.
// All others are parked on a channel receive. Every piece of kernel,
// fabric, and application state may therefore be accessed without locks or
// atomics; mutual exclusion is structural, not advisory. The transfer
// points (and the happens-before edges the race detector sees) are the
// rendezvous operations below, so a -race run proves the invariant rather
// than assuming it.
//
// The park/unpark protocol. Each runner shares one unbuffered channel
// (Fiber.ctl) with the kernel, used in strictly alternating directions:
//
//	kernel: dispatch = send ctl  (unparks fiber) ; recv ctl (parks kernel)
//	fiber:  pause    = send ctl  (unparks kernel); recv ctl (parks fiber)
//
// A control transfer is thus exactly one rendezvous — one park and one
// unpark — per direction. The alternation makes the single channel
// unambiguous: a goroutine cannot match its own send with its own receive,
// and at any instant at most one side is sending. (The previous design
// used two channels, resume and yield, and paid two channel handoffs per
// step.) A blocked fiber is always parked inside pause; the kernel is
// parked inside dispatch for as long as the fiber runs.
//
// Pool lifecycle. Runners are pooled per kernel. Spawn takes a parked
// runner from the free list (creating one only on a pool miss — see
// Kernel.FiberStarts) and schedules the body at the current instant. When
// the body returns, the runner hands control back, its Fiber is pushed on
// the free list, and the goroutine parks awaiting the next Spawn. When a
// top-level Run returns, the kernel retires every pooled runner (a nil-fn
// retire token makes the goroutine return), so dropping a kernel after Run
// leaks no goroutines while all Spawns inside one Run — where experiments
// spawn thousands of fibers — reuse warm runners. A fiber parked
// mid-Await whose signal never fires remains parked, exactly as an
// un-exited fiber goroutine did before pooling; LiveFibers exists to
// assert scenarios wind down cleanly.
//
// The kernel goroutine. The goroutine that calls Run is the kernel for the
// whole run: the event loop executes on it, every fiber body executes on a
// runner it dispatched, and Run returns on it.
//
// Panic safety. A panic in a fiber body is caught in the runner, which
// records the value and stack, wakes the kernel, and lets the goroutine
// exit (a dead runner is never pooled). The kernel re-raises the panic in
// event context — inside the Run call that dispatched the fiber — with the
// fiber's stack appended, instead of crashing the process from an
// anonymous goroutine.
//
// Why determinism survives goroutine reuse. Scheduling decisions are made
// only by the kernel's event queue, keyed by (virtual time, sequence
// number); which OS thread or goroutine executes a fiber body is
// invisible to simulation state. Reusing a runner changes neither the
// number nor the order of scheduled events (Spawn posts exactly one start
// event either way), performs no RNG draws, and shares no data between
// fibers beyond the zero-reset Fiber fields. The Go scheduler chooses only
// *when wall-clock-wise* a handoff completes, never *which* event runs
// next — so virtual-time results are byte-identical with pooling on a
// fresh goroutine, a reused one, or any GOMAXPROCS.
package sim
