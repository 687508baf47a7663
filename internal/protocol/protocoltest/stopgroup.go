// Package protocoltest holds replication-group test doubles shared by the
// txn, shard and facade crash tests.
package protocoltest

import (
	"errors"

	"hyperloop/internal/protocol"
	"hyperloop/internal/sim"
)

// ErrStopped is what a StopGroup returns once its client has "died".
var ErrStopped = errors.New("protocoltest: client stopped")

// StopGroup decorates a replication group so a test can freeze one 2PC
// participant at an exact group-op boundary while the others run on: once
// Budget group operations (gWRITE, gMEMCPY, gCAS, gFLUSH) have been let
// through, every further mutation — the local staging write included —
// fails with ErrStopped, which leaves the client mirror and the replicas
// exactly as a coordinator that died between two operations would. The
// posting forms of gWRITE and gMEMCPY draw on the same budget as the
// blocking ones. Delay, when set, is slept before each blocking group
// operation — a store step ends in one — so participants finish their steps
// at different instants. Reads always pass through.
type StopGroup struct {
	protocol.Protocol
	// Budget is the number of group operations still let through; negative
	// means no limit. Tests set it before a transaction and lift it
	// (Budget = -1) before recovery.
	Budget int
	// Delay is slept before every group operation.
	Delay sim.Duration
}

// NewStopGroup wraps g with no limit and no delay.
func NewStopGroup(g protocol.Protocol) *StopGroup {
	return &StopGroup{Protocol: g, Budget: -1}
}

// admit charges one group operation to the budget.
func (g *StopGroup) admit() error {
	if g.Budget == 0 {
		return ErrStopped
	}
	if g.Budget > 0 {
		g.Budget--
	}
	return nil
}

// begin gates one blocking group operation.
func (g *StopGroup) begin(f *sim.Fiber) error {
	if err := g.admit(); err != nil {
		return err
	}
	if g.Delay > 0 {
		f.Sleep(g.Delay)
	}
	return nil
}

// WriteLocal refuses to stage bytes for an operation that will not run.
func (g *StopGroup) WriteLocal(off int, data []byte) error {
	if g.Budget == 0 {
		return ErrStopped
	}
	return g.Protocol.WriteLocal(off, data)
}

// Write is a gated gWRITE.
func (g *StopGroup) Write(f *sim.Fiber, off, size int, durable bool) error {
	if err := g.begin(f); err != nil {
		return err
	}
	return g.Protocol.Write(f, off, size, durable)
}

// WriteAsync is a gated gWRITE post; there is no fiber to delay.
func (g *StopGroup) WriteAsync(off, size int, durable bool) (*sim.Signal, error) {
	if err := g.admit(); err != nil {
		return nil, err
	}
	return g.Protocol.WriteAsync(off, size, durable)
}

// MemcpyAsync is a gated gMEMCPY post.
func (g *StopGroup) MemcpyAsync(src, dst, size int, durable bool) (*sim.Signal, error) {
	if err := g.admit(); err != nil {
		return nil, err
	}
	return g.Protocol.MemcpyAsync(src, dst, size, durable)
}

// Memcpy is a gated gMEMCPY.
func (g *StopGroup) Memcpy(f *sim.Fiber, src, dst, size int, durable bool) error {
	if err := g.begin(f); err != nil {
		return err
	}
	return g.Protocol.Memcpy(f, src, dst, size, durable)
}

// CAS is a gated gCAS.
func (g *StopGroup) CAS(f *sim.Fiber, off int, old, new uint64, exec []bool) ([]uint64, error) {
	if err := g.begin(f); err != nil {
		return nil, err
	}
	return g.Protocol.CAS(f, off, old, new, exec)
}

// Flush is a gated gFLUSH.
func (g *StopGroup) Flush(f *sim.Fiber, off, size int) error {
	if err := g.begin(f); err != nil {
		return err
	}
	return g.Protocol.Flush(f, off, size)
}
