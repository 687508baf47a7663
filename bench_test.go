package hyperloop

// Benchmarks of the facade's primitives, the simulator kernel and the
// trial worker pool. The paper's experiments themselves run through
// cmd/hyperloop-bench and the CI goldens (determinism, baseline and
// full-scale report).

import (
	"testing"
	"time"

	"hyperloop/internal/experiments"
	"hyperloop/internal/sim"
)

// BenchmarkGWritePrimitive measures the core primitive directly: virtual
// (simulated) latency of a durable 1KB gWRITE over 3 replicas, reported as
// the custom metric "sim-ns/op" alongside host ns/op.
func BenchmarkGWritePrimitive(b *testing.B) {
	cluster, err := NewCluster(ClusterConfig{Seed: 1, Replicas: 3})
	if err != nil {
		b.Fatal(err)
	}
	group, err := cluster.NewGroup(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	var virtual sim.Duration
	b.ResetTimer()
	err = cluster.Run(func(f *Fiber) error {
		start := f.Now()
		for i := 0; i < b.N; i++ {
			if err := group.Write(f, (i%32)*4096, 1024, true); err != nil {
				return err
			}
		}
		virtual = f.Now().Sub(start)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(virtual)/float64(b.N), "sim-ns/op")
}

// BenchmarkGCASPrimitive measures virtual gCAS latency.
func BenchmarkGCASPrimitive(b *testing.B) {
	cluster, err := NewCluster(ClusterConfig{Seed: 1, Replicas: 3})
	if err != nil {
		b.Fatal(err)
	}
	group, err := cluster.NewGroup(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	var virtual sim.Duration
	b.ResetTimer()
	err = cluster.Run(func(f *Fiber) error {
		start := f.Now()
		for i := 0; i < b.N; i++ {
			if _, err := group.CAS(f, 0, uint64(i), uint64(i+1), []bool{true, true, true}); err != nil {
				return err
			}
		}
		virtual = f.Now().Sub(start)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(virtual)/float64(b.N), "sim-ns/op")
}

// BenchmarkSimulatorEventRate measures raw kernel throughput (host events
// per second) — the simulator's own performance envelope.
func BenchmarkSimulatorEventRate(b *testing.B) {
	k := sim.NewKernel(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	k.After(time.Microsecond, tick)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelAllocs measures steady-state allocations of the kernel hot
// path: an AfterFunc tick chain reusing one Timer plus a cancelled timer per
// tick. With the event free-list this is allocation-free after warm-up.
func BenchmarkKernelAllocs(b *testing.B) {
	k := sim.NewKernel(1)
	var tm, cancel sim.Timer
	n := 0
	noop := func() {}
	var tick func()
	tick = func() {
		n++
		k.AfterFunc(time.Microsecond, noop, &cancel)
		cancel.Stop()
		if n < b.N {
			k.AfterFunc(time.Microsecond, tick, &tm)
		}
	}
	// Warm the free list before measuring.
	k.AfterFunc(time.Microsecond, noop, nil)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.AfterFunc(time.Microsecond, tick, &tm)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParallelSpeedup runs one latency experiment serially and with the
// worker pool and reports wall-clock speedup as the custom metric
// "speedup-x". On a single-core host it stays near 1; the output is
// byte-identical either way (see experiments.TestSerialParallelIdentical).
func BenchmarkParallelSpeedup(b *testing.B) {
	const id = "abl-load"
	prev := experiments.Parallelism()
	defer experiments.SetParallelism(prev)
	// Untimed warm-up so first-touch heap growth doesn't bias the serial leg.
	if _, err := experiments.Run(id, 1, experiments.Quick); err != nil {
		b.Fatal(err)
	}
	var serial, parallel time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		experiments.SetParallelism(1)
		start := time.Now()
		if _, err := experiments.Run(id, seed, experiments.Quick); err != nil {
			b.Fatal(err)
		}
		serial += time.Since(start)
		experiments.SetParallelism(0) // GOMAXPROCS workers
		start = time.Now()
		if _, err := experiments.Run(id, seed, experiments.Quick); err != nil {
			b.Fatal(err)
		}
		parallel += time.Since(start)
	}
	if parallel > 0 {
		b.ReportMetric(float64(serial)/float64(parallel), "speedup-x")
	}
}
