package sim

import (
	"fmt"
	"testing"
)

// BenchmarkKernelHold is the classic hold model of an event set at a fixed
// residency: every fired event schedules its successor an exponential
// delay ahead, so `resident` events stay queued, and re-arms one shared
// Timer (an op timeout: Stop + push, ten means out). The mean scales with
// residency, one event per 2.5 µs of virtual time throughout — about what
// a tenant-loaded rack executes. resident=4 and 16 are the NIC datapath's
// residency, 400 a rack of sleeping tenants, 4000 ten such racks. Delays
// are drawn before the clock starts; one op is one fired event.
func BenchmarkKernelHold(b *testing.B) {
	for _, resident := range []int{4, 16, 400, 4000} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			k := NewKernel(1)
			mean := float64(resident) * 2500
			rng := NewRNG(2)
			delays := make([]Duration, 1<<12)
			for i := range delays {
				delays[i] = Duration(rng.Exp(mean))
			}
			var timeout Timer
			var next, left int
			var hold func()
			hold = func() {
				if left--; left == 0 {
					k.StopRun()
				}
				next = (next + 1) & (len(delays) - 1)
				k.AfterFunc(delays[next], hold, nil)
				k.AfterFunc(Duration(10*mean), func() {}, &timeout)
			}
			for i := 0; i < resident; i++ {
				k.AfterFunc(delays[i], hold, nil)
			}
			run := func(n int) {
				left = n
				if err := k.Run(); err != ErrStopped {
					b.Fatalf("hold model drained: %v", err)
				}
			}
			run(8 * resident) // reach the steady-state spread before timing
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}
