package main

import (
	"fmt"
	"time"

	root "hyperloop"
	"hyperloop/internal/cpusim"
	"hyperloop/internal/nvm"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

// The probes time one layer's public functions directly, outside any
// workload, so a per-layer cost has a number of its own that does not
// depend on the op mix. Each runs for a fixed iteration count (scaled by
// probeScale) and reports host time per call; where a probe also has a
// virtual-clock result, that result depends on the seed alone.

type putFn func(name string, v float64)

func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

func runProbes(seed uint64, scale float64, put putFn) error {
	probeSimTimer(scaled(400_000, scale), put)
	probeFiberSwitch(scaled(50_000, scale), put)
	if err := probeRDMAWrite(seed, scaled(20_000, scale), put); err != nil {
		return fmt.Errorf("rdma probe: %w", err)
	}
	if err := probeNVM(seed, scaled(6, scale), put); err != nil {
		return fmt.Errorf("nvm probe: %w", err)
	}
	if err := probeTenants(seed, put); err != nil {
		return fmt.Errorf("cpusim probe: %w", err)
	}
	if err := probeTxn(seed, scaled(4_000, scale), put); err != nil {
		return fmt.Errorf("txn probe: %w", err)
	}
	return probeWAL(scaled(100_000, scale), put)
}

// probeSimTimer: one AfterFunc + fire with 512 other timers resident in
// the kernel's heap — the residency the -tenants workloads run at.
func probeSimTimer(n int, put putFn) {
	k := sim.NewKernel(1)
	for i := 0; i < 512; i++ {
		k.After(sim.Duration(3600+i)*sim.Second, func() {})
	}
	fired := 0
	var tick func()
	tick = func() {
		if fired++; fired == n {
			k.StopRun()
			return
		}
		k.AfterFunc(sim.Microsecond, tick, nil)
	}
	k.AfterFunc(sim.Microsecond, tick, nil)
	start := time.Now()
	_ = k.Run() // ErrStopped is the expected way out
	put("sim.timer_ns", float64(time.Since(start))/float64(n))
}

// probeFiberSwitch: two fibers hand control back and forth on signals.
func probeFiberSwitch(n int, put putFn) {
	k := sim.NewKernel(1)
	ping := make([]*sim.Signal, n)
	pong := make([]*sim.Signal, n)
	for i := range ping {
		ping[i], pong[i] = sim.NewSignal(), sim.NewSignal()
	}
	k.Spawn("ping", func(f *sim.Fiber) {
		for i := 0; i < n; i++ {
			ping[i].Fire(nil)
			_ = f.Await(pong[i]) // fired with nil
		}
	})
	k.Spawn("pong", func(f *sim.Fiber) {
		for i := 0; i < n; i++ {
			_ = f.Await(ping[i])
			pong[i].Fire(nil)
		}
	})
	start := time.Now()
	_ = k.Run() // drains: both fibers end
	put("sim.fiber_switch_ns", float64(time.Since(start))/float64(2*n))
}

// probeRDMAWrite: a signalled 1 KiB RDMA WRITE between two NICs, post to CQE.
func probeRDMAWrite(seed uint64, n int, put putFn) error {
	const (
		memSize = 1 << 16
		ring    = 32
		bufOff  = 8192
	)
	k := sim.NewKernel(seed)
	fab := rdma.NewFabric(k, rdma.DefaultConfig())
	var (
		qps [2]*rdma.QP
		mrs [2]*rdma.MemoryRegion
	)
	for i, host := range []string{"a", "b"} {
		nic, err := fab.AddNIC(host, nvm.NewDevice(host, memSize))
		if err != nil {
			return err
		}
		mrs[i], err = nic.RegisterMR(0, memSize, rdma.AccessLocalWrite|rdma.AccessRemoteWrite)
		if err != nil {
			return err
		}
		qps[i], err = nic.CreateQP(rdma.QPConfig{SendSlots: ring, SendCQ: nic.CreateCQ(), RecvCQ: nic.CreateCQ()})
		if err != nil {
			return err
		}
	}
	qps[0].Connect(qps[1])
	// The completion resumes the fiber from the CQ's drain handler.
	var (
		done   *sim.Signal
		hostNs int64
		perr   error
	)
	qps[0].SendCQ().SetDrainHandler(func(es []rdma.CQE) {
		for _, e := range es {
			if e.Status != rdma.StatusSuccess {
				perr = fmt.Errorf("WRITE completed with %v", e.Status)
			}
		}
		done.Fire(nil)
	})
	virt := make([]int64, 0, n)
	k.Spawn("probe", func(f *sim.Fiber) {
		start := time.Now()
		for i := 0; i < n && perr == nil; i++ {
			v0 := f.Now()
			done = sim.NewSignal()
			_, perr = qps[0].PostSend(rdma.WQE{
				Opcode: rdma.OpWrite, Flags: rdma.FlagSignaled,
				Local: bufOff, Len: valueSize, Remote: bufOff, Aux1: mrs[1].RKey, WRID: uint64(i),
			})
			if perr != nil {
				return
			}
			_ = f.Await(done) // fired with nil; a failed WRITE is in perr
			virt = append(virt, int64(f.Now().Sub(v0)))
		}
		hostNs = int64(time.Since(start))
	})
	if err := k.Run(); err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	put("rdma.write_rtt_host_ns", float64(hostNs)/float64(n))
	put("rdma.write_rtt_virt_ns", quantile(virt, 0.50))
	return nil
}

// probeNVM: 1 KiB device writes appended (the kv log's pattern) against
// 1 KiB writes to 4 096 slots in random order with gaps between them (the
// document store's), each followed by a flush of what was written.
func probeNVM(seed uint64, passes int, put putFn) error {
	const (
		slots  = 4096
		stride = 2 * valueSize
	)
	data := make([]byte, valueSize)
	var seqNs, scatterNs, flushNs int64
	for p := 0; p < passes; p++ {
		seq := nvm.NewDevice("seq", slots*valueSize)
		scat := nvm.NewDevice("scatter", slots*stride)
		order := sim.NewRNG(seed + uint64(p)).Perm(slots)

		start := time.Now()
		for i := 0; i < slots; i++ {
			if err := seq.Write(i*valueSize, data); err != nil {
				return err
			}
		}
		seqNs += int64(time.Since(start))

		start = time.Now()
		for _, s := range order {
			if err := scat.Write(s*stride, data); err != nil {
				return err
			}
		}
		scatterNs += int64(time.Since(start))

		start = time.Now()
		for _, s := range order {
			if _, err := scat.Flush(s*stride, valueSize); err != nil {
				return err
			}
		}
		flushNs += int64(time.Since(start))
	}
	calls := float64(passes * slots)
	put("nvm.write_seq_ns", float64(seqNs)/calls)
	put("nvm.write_scatter_ns", float64(scatterNs)/calls)
	put("nvm.flush_ns", float64(flushNs)/calls)
	return nil
}

// probeTenants: one 16-core scheduler carrying the facade's tenant mix
// (hogs, bursty noise, storms) for 200 virtual ms with no foreground.
func probeTenants(seed uint64, put putFn) error {
	const (
		cores  = 16
		virtMs = 200
	)
	k := sim.NewKernel(seed)
	s, err := cpusim.New(k, cpusim.DefaultConfig(cores))
	if err != nil {
		return err
	}
	s.AddHogs(cores / 2)
	s.AddNoise(10*cores, 300*sim.Microsecond, 2700*sim.Microsecond)
	s.AddStorms(2*cores, 200*sim.Millisecond, 4*sim.Millisecond)
	start := time.Now()
	if err := k.RunUntil(k.Now().Add(virtMs * sim.Millisecond)); err != nil {
		return err
	}
	put("cpusim.tenant_host_ns_per_virt_ms", float64(time.Since(start))/virtMs)
	put("cpusim.tenant_events_per_virt_ms", float64(k.Executed())/virtMs)
	return nil
}

// probeTxn: Append then ExecuteAndAdvance of one 1 KiB entry on a
// txn.Store over a chain group.
func probeTxn(seed uint64, n int, put putFn) error {
	c, err := root.NewCluster(root.ClusterConfig{Seed: seed})
	if err != nil {
		return err
	}
	const logSize, dataSize = 256 << 10, 1 << 20
	g, err := c.NewGroup(txn.MirrorSizeFor(logSize, dataSize))
	if err != nil {
		return err
	}
	defer g.Close()
	st, err := txn.New(g, txn.Config{LogSize: logSize, DataSize: dataSize})
	if err != nil {
		return err
	}
	entry := []wal.Entry{{Data: make([]byte, valueSize)}}
	appendVirt := make([]int64, 0, n)
	execVirt := make([]int64, 0, n)
	var appendHost int64
	err = c.Run(func(f *sim.Fiber) error {
		for i := 0; i < n; i++ {
			entry[0].Off = i % (dataSize / valueSize) * valueSize
			v0, h0 := f.Now(), time.Now()
			if _, err := st.Append(f, entry); err != nil {
				return err
			}
			appendHost += int64(time.Since(h0))
			v1 := f.Now()
			if _, err := st.ExecuteAndAdvance(f); err != nil {
				return err
			}
			appendVirt = append(appendVirt, int64(v1.Sub(v0)))
			execVirt = append(execVirt, int64(f.Now().Sub(v1)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("txn.append_virt_us", quantile(appendVirt, 0.50)/1e3)
	put("txn.execute_virt_us", quantile(execVirt, 0.50)/1e3)
	put("txn.append_host_us", float64(appendHost)/1e3/float64(n))
	return nil
}

// probeWAL: encoding one record with a 1 KiB entry, and scanning a log
// image of 64 such records (reported per record).
func probeWAL(n int, put putFn) error {
	const recs = 64
	n = max(n, recs) // the scan below needs every slot of the image filled
	rec := wal.Record{Seq: 1, Entries: []wal.Entry{{Data: make([]byte, valueSize)}}}
	size := rec.EncodedSize()
	img := make([]byte, recs*size)
	start := time.Now()
	for i := 0; i < n; i++ {
		rec.Seq = uint64(i + 1)
		if _, err := rec.Encode(img[i%recs*size:]); err != nil {
			return err
		}
	}
	put("wal.encode_ns", float64(time.Since(start))/float64(n))

	scans := n/recs + 1
	start = time.Now()
	for i := 0; i < scans; i++ {
		got, _, err := wal.Scan(img, 0, len(img))
		if err != nil || len(got) != recs {
			return fmt.Errorf("wal scan: %d records, err %v", len(got), err)
		}
	}
	put("wal.scan_ns", float64(time.Since(start))/float64(scans*recs))
	return nil
}
