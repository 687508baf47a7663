package experiments

import (
	"fmt"
	"testing"

	"hyperloop/internal/cpusim"
	"hyperloop/internal/hyperloop"
	"hyperloop/internal/metrics"
	"hyperloop/internal/naive"
	"hyperloop/internal/nvm"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// TestShapeRobustToCalibration varies the calibration constants by ±2× and
// checks that the paper's shape conclusion — HyperLoop's latency is far
// below the naive baseline's under multi-tenant load, with near-flat tails
// — survives every variation (DESIGN.md, "Calibration constants").
func TestShapeRobustToCalibration(t *testing.T) {
	type variation struct {
		name  string
		fab   func(*rdma.Config)
		sched func(*cpusim.Config)
	}
	variations := []variation{
		{name: "baseline"},
		{name: "prop-delay-x2", fab: func(c *rdma.Config) { c.PropDelay *= 2 }},
		{name: "prop-delay-half", fab: func(c *rdma.Config) { c.PropDelay /= 2 }},
		{name: "wqe-proc-x2", fab: func(c *rdma.Config) { c.WQEProc *= 2 }},
		{name: "bandwidth-half", fab: func(c *rdma.Config) { c.BandwidthBps /= 2 }},
		{name: "flush-x2", fab: func(c *rdma.Config) { c.CacheFlushBase *= 2; c.CacheFlushPerLine *= 2 }},
		{name: "ctx-switch-x2", sched: func(c *cpusim.Config) { c.CtxSwitch *= 2 }},
		{name: "granularity-x2", sched: func(c *cpusim.Config) { c.MinGranularity *= 2 }},
		{name: "tick-half", sched: func(c *cpusim.Config) { c.TickQuantum /= 2 }},
		{name: "tick-x2", sched: func(c *cpusim.Config) { c.TickQuantum *= 2 }},
	}

	const (
		mirror = 256 * 1024
		ops    = 150
		size   = 1024
	)
	measure := func(v variation, hyper bool) *metrics.Histogram {
		t.Helper()
		k := sim.NewKernel(9)
		fcfg := rdma.DefaultConfig()
		if v.fab != nil {
			v.fab(&fcfg)
		}
		fab := rdma.NewFabric(k, fcfg)
		client, err := fab.AddNIC("client", nvm.NewDevice("client", 4<<20))
		if err != nil {
			t.Fatal(err)
		}
		var reps []*rdma.NIC
		var scheds []*cpusim.Scheduler
		for i := 0; i < 3; i++ {
			nic, err := fab.AddNIC(fmt.Sprintf("s%d", i), nvm.NewDevice(fmt.Sprintf("s%d", i), 4<<20))
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, nic)
			scfg := cpusim.DefaultConfig(16)
			if v.sched != nil {
				v.sched(&scfg)
			}
			sched, err := cpusim.New(k, scfg)
			if err != nil {
				t.Fatal(err)
			}
			sched.AddHogs(8)
			sched.AddNoise(160, 300*sim.Microsecond, 2700*sim.Microsecond)
			sched.AddStorms(32, 200*sim.Millisecond, 4*sim.Millisecond)
			sched.SetWakePenalty(0.015, 3*sim.Millisecond)
			scheds = append(scheds, sched)
		}
		env := protocol.Env{Fabric: fab, Client: client, Replicas: reps, Scheds: scheds}
		var write func(f *sim.Fiber, off int) error
		if hyper {
			g, err := hyperloop.Setup(env, protocol.Params{MirrorSize: mirror})
			if err != nil {
				t.Fatal(err)
			}
			write = func(f *sim.Fiber, off int) error { return g.Write(f, off, size, true) }
		} else {
			g, err := naive.Setup(env, protocol.Params{MirrorSize: mirror}, naive.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			write = func(f *sim.Fiber, off int) error { return g.Write(f, off, size, true) }
		}
		h := metrics.NewHistogram()
		k.Spawn("driver", func(f *sim.Fiber) {
			defer k.StopRun()
			for i := 0; i < ops; i++ {
				start := f.Now()
				if err := write(f, (i%16)*8192); err != nil {
					t.Errorf("%s op %d: %v", v.name, i, err)
					return
				}
				h.RecordDuration(f.Now().Sub(start))
			}
		})
		if err := k.RunUntil(k.Now().Add(120 * sim.Second)); err != nil && err != sim.ErrStopped {
			t.Fatal(err)
		}
		if h.Count() < ops {
			t.Fatalf("%s: only %d/%d ops", v.name, h.Count(), ops)
		}
		return h
	}

	for _, v := range variations {
		v := v
		t.Run(v.name, func(t *testing.T) {
			hh := measure(v, true)
			nh := measure(v, false)
			// Shape conclusion 1: HyperLoop mean at least 10x below naive.
			if float64(nh.Mean()) < 10*float64(hh.Mean()) {
				t.Errorf("mean separation lost: naive %v vs hyperloop %v",
					nh.MeanDuration(), hh.MeanDuration())
			}
			// Shape conclusion 2: HyperLoop's tail stays within 3x of its
			// own mean (predictable latency), the naive tail does not.
			if float64(hh.Percentile(99)) > 3*float64(hh.Mean()) {
				t.Errorf("hyperloop tail not flat: mean %v p99 %v",
					hh.MeanDuration(), hh.PercentileDuration(99))
			}
			if float64(nh.Percentile(99)) < 3*float64(nh.Mean()) {
				t.Errorf("naive tail unexpectedly flat: mean %v p99 %v",
					nh.MeanDuration(), nh.PercentileDuration(99))
			}
		})
	}
}
