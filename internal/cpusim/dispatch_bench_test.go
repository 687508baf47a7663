package cpusim

import (
	"fmt"
	"testing"

	"hyperloop/internal/sim"
)

// tenantLoad puts the rack recipe's tenants (internal/topo colocate, ten
// per core, without the rare storms) on a fresh scheduler.
func tenantLoad(tb testing.TB, seed uint64, cores int) (*sim.Kernel, *Scheduler) {
	tb.Helper()
	k := sim.NewKernel(seed)
	s, err := New(k, DefaultConfig(cores))
	if err != nil {
		tb.Fatal(err)
	}
	s.AddHogs(cores / 2)
	s.AddNoise(10*cores, 300*sim.Microsecond, 2700*sim.Microsecond)
	return k, s
}

// BenchmarkDispatch runs a tenant-loaded server with no foreground work:
// nearly every event is a dispatch kick, a slice end or a noise wake, so
// host time per virtual millisecond (one op) is the scheduler's
// bookkeeping plus the event queue under it. events/op is a function of
// the seed alone and must not move with a host-side change.
func BenchmarkDispatch(b *testing.B) {
	for _, cores := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			k, _ := tenantLoad(b, 1, cores)
			step := func(ms int) {
				if err := k.RunUntil(k.Now().Add(sim.Duration(ms) * sim.Millisecond)); err != nil {
					b.Fatal(err)
				}
			}
			step(20) // past the staggered starts
			before := k.Executed()
			b.ResetTimer()
			step(b.N)
			b.ReportMetric(float64(k.Executed()-before)/float64(b.N), "events/op")
		})
	}
}
