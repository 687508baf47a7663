package protocol

import (
	"errors"
	"fmt"
	"sort"

	"hyperloop/internal/cpusim"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// Canonical sentinel errors. Implementations wrap these (see WrapErr) so
// cross-protocol code can match failure classes with errors.Is without
// knowing which datapath produced them.
var (
	// ErrTooManyInFlight: the operation window (Depth-2) is full.
	ErrTooManyInFlight = errors.New("replication: operation window exceeded")
	// ErrTimeout: the op's ACK did not arrive within OpTimeout.
	ErrTimeout = errors.New("replication: operation timed out")
	// ErrBadArgument: an op argument is outside the mirror or malformed.
	ErrBadArgument = errors.New("replication: bad argument")
	// ErrClosed: the group was torn down with Close.
	ErrClosed = errors.New("replication: group closed")
)

// IsOpError reports whether err is one of the canonical per-operation
// failures (timeout, window full, bad argument, closed group) — the
// errors a driver can skip past — as opposed to a datapath breakage.
func IsOpError(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrTooManyInFlight) ||
		errors.Is(err, ErrBadArgument) || errors.Is(err, ErrClosed)
}

// wrappedErr is a sentinel with its own message but a canonical base, so
// errors.Is(pkgErr, protocol.ErrX) holds while the package keeps its
// historical error string.
type wrappedErr struct {
	msg  string
	base error
}

func (e *wrappedErr) Error() string { return e.msg }
func (e *wrappedErr) Unwrap() error { return e.base }

// WrapErr builds a package-level sentinel: it prints msg, and unwraps to
// base for errors.Is. Example:
//
//	var ErrTimeout = protocol.WrapErr("hyperloop: operation timed out", protocol.ErrTimeout)
func WrapErr(msg string, base error) error { return &wrappedErr{msg: msg, base: base} }

// Protocol is the group-primitive surface every replication strategy
// provides. All offsets are relative to the mirrored region, which spans
// [0, MirrorSize) on every member including the client.
type Protocol interface {
	// WriteLocal stores data into the client's mirror; the usual pattern
	// is WriteLocal followed by Write to replicate the range.
	WriteLocal(off int, data []byte) error
	// ViewLocal returns the client's mirror range, read-only. The view is
	// valid until the caller next yields to the kernel or, for a range that
	// crosses a device page, until the next ViewLocal.
	ViewLocal(off, n int) ([]byte, error)

	// WriteAsync replicates [off, off+size) to all replicas (gWRITE),
	// optionally durable on each; the signal fires on the group ACK. The
	// group recycles the signal once an Await has returned it.
	WriteAsync(off, size int, durable bool) (*sim.Signal, error)
	// Write is the blocking form of WriteAsync; with MaxRetries > 0 a
	// timed-out write is re-issued under a fresh sequence number.
	Write(f *sim.Fiber, off, size int, durable bool) error
	// MemcpyAsync copies src→dst locally on every member (gMEMCPY).
	MemcpyAsync(src, dst, size int, durable bool) (*sim.Signal, error)
	// Memcpy is the blocking form of MemcpyAsync, with Write's retry
	// policy (gMEMCPY is idempotent).
	Memcpy(f *sim.Fiber, src, dst, size int, durable bool) error
	// CAS performs a group compare-and-swap of the 8-byte word at off on
	// every member whose execute-map entry is true, returning the original
	// values observed (valid until the caller next yields). gCAS is never
	// retried.
	CAS(f *sim.Fiber, off int, old, new uint64, exec []bool) ([]uint64, error)
	// FlushAsync makes [off, off+size) durable on every member (gFLUSH).
	FlushAsync(off, size int) (*sim.Signal, error)
	// Flush is the blocking form of FlushAsync, with Write's retry policy.
	Flush(f *sim.Fiber, off, size int) error

	// GroupSize returns the number of replicated members (the client's
	// copy not included).
	GroupSize() int
	// InFlight returns operations awaiting their group ACK.
	InFlight() int
	// Stats reports operations issued and completed.
	Stats() (issued, completed int64)
	// Retried reports timed-out operations re-issued by blocking paths.
	Retried() int64
	// Close tears the datapath down: in-flight operations fail with the
	// protocol's ErrClosed, further issues are rejected, and every QP/CQ
	// the group created is destroyed at the rdma layer.
	Close()
}

// Env is the cluster half of a protocol's inputs: the shared fabric, the
// client NIC, the replica NICs in member order, and (for CPU-driven
// protocols) each replica machine's CPU scheduler. Scheds may be nil for
// NIC-offloaded protocols.
type Env struct {
	Fabric   *rdma.Fabric
	Client   *rdma.NIC
	Replicas []*rdma.NIC
	Scheds   []*cpusim.Scheduler
}

// Params is the policy half: mirror size, in-flight window, and the
// timeout/retry policy shared by every protocol's blocking paths. Zero
// values select each implementation's defaults (Depth 32, no timeout).
type Params struct {
	MirrorSize   int
	Depth        int
	OpTimeout    sim.Duration
	MaxRetries   int
	RetryBackoff sim.Duration

	// WakePenalty/WakePenaltyProb model multi-tenant co-location for
	// CPU-driven protocols: with probability WakePenaltyProb a replica
	// handler wake pays up to WakePenalty of extra scheduling delay (the
	// paper's §2.2 tail mechanism). NIC-offloaded protocols have no
	// replica handler and ignore both.
	WakePenalty     sim.Duration
	WakePenaltyProb float64
}

// Traits are static per-protocol properties that cross-protocol harnesses
// (the conformance suite, the claim scenarios) use to pick applicable
// scenarios and the guarantee each protocol actually makes. The zero value
// is the strongest default: completion requires every member's ack and no
// replica CPU sits on the critical path.
type Traits struct {
	// AcksNeeded returns how many member acks (of a group of g members)
	// the protocol requires before it completes a write — the floor on how
	// many replicas provably hold an acknowledged op. nil means all g.
	AcksNeeded func(g int) int
	// CPUDriven marks protocols whose replica datapath runs on the
	// replicas' CPU schedulers, exposing op latency to co-located tenant
	// load. NIC-offloaded protocols leave it false.
	CPUDriven bool
}

// SetTraits attaches traits to a registered protocol; implementations call
// it from the same init that called Register. Unknown names panic — it is
// the same wiring bug as a duplicate registration.
func SetTraits(name string, t Traits) {
	e, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("protocol: SetTraits on unregistered protocol %q", name))
	}
	e.traits = t
	registry[name] = e
}

// TraitsOf returns a protocol's traits (the zero value when none were set
// or the name is unknown).
func TraitsOf(name string) Traits { return registry[name].traits }

// AcksNeeded returns the number of member acks protocol name requires to
// complete a write on a group of g members: the registered trait when one
// is set, otherwise all g.
func AcksNeeded(name string, g int) int {
	if fn := registry[name].traits.AcksNeeded; fn != nil {
		return fn(g)
	}
	return g
}

// Builder constructs a protocol instance over a cluster.
type Builder func(Env, Params) (Protocol, error)

type regEntry struct {
	desc   string
	build  Builder
	traits Traits
}

var registry = map[string]regEntry{}

// Register installs a protocol under name; implementations call it from
// package init. Registering a duplicate name panics — it is a wiring bug.
func Register(name, desc string, b Builder) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("protocol: duplicate registration of %q", name))
	}
	registry[name] = regEntry{desc: desc, build: b}
}

// Names returns all registered protocol names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns a protocol's one-line description ("" if unknown).
func Describe(name string) string { return registry[name].desc }

// Build constructs the named protocol over env with params.
func Build(name string, env Env, p Params) (Protocol, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("protocol: unknown protocol %q (have %v)", name, Names())
	}
	return e.build(env, p)
}

// Named returns the builder registered under name. The name is resolved
// when the builder runs, so an unknown one fails that build with Build's
// error.
func Named(name string) Builder {
	return func(env Env, p Params) (Protocol, error) { return Build(name, env, p) }
}
