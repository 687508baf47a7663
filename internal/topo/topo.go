// Package topo assembles every simulated cluster in the repository: a rack
// of servers on one kernel and one fabric, the tenant load their CPUs
// carry, and the replication groups placed across them. The facade types,
// the experiments and the claim scenarios all build through it, so the
// build order — which fixes RNG forks and event sequence numbers, and with
// them every reported number — is stated once (DESIGN.md, "Topology").
package topo

import (
	"errors"
	"fmt"

	"hyperloop/internal/cpusim"
	"hyperloop/internal/nvm"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// Alloc supplies a rack's kernel and fabric, so a caller that totals their
// counters (the experiment arenas, per trial) sees every one it built.
type Alloc interface {
	Kernel(seed uint64) *sim.Kernel
	Fabric(k *sim.Kernel, cfg rdma.Config) *rdma.Fabric
}

// fresh is the nil Alloc: a new kernel and fabric, seen by no one.
type fresh struct{}

func (fresh) Kernel(seed uint64) *sim.Kernel { return sim.NewKernel(seed) }
func (fresh) Fabric(k *sim.Kernel, cfg rdma.Config) *rdma.Fabric {
	return rdma.NewFabric(k, cfg)
}

// Spec describes a rack.
type Spec struct {
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed uint64
	// Servers is the number of storage servers groups are placed across.
	Servers int
	// Cores sizes each server's CPU. Zero builds no schedulers at all —
	// for rigs that run NIC-offloaded protocols only; cpusim.New forks the
	// kernel RNG, so "idle schedulers" and "no schedulers" are different
	// runs.
	Cores int
	// TenantsPerCore co-locates that many bursty tenant processes per core,
	// plus hogs and batch-daemon storms, on every server, and records the
	// per-tenant wake penalty on each server's scheduler (see colocate),
	// which CPU-driven groups' replica handlers pay. The paper's
	// environment is 10.
	TenantsPerCore int
	// Faults is installed on the fabric before any scheduler exists.
	Faults *rdma.FaultPlan
	// DevExtra is each NIC's device headroom past its group's mirror, for
	// rings, metadata and staging buffers.
	DevExtra int
	// Alloc supplies the kernel and fabric; nil builds them unobserved.
	Alloc Alloc
}

// GroupSpec places one replication group on a rack.
type GroupSpec struct {
	// Name labels the group's NICs: cli/<Name> for its client and
	// srv<s>/<Name>.<j> for replica j on server s. The empty name is the
	// sole-group layout, "client" and "server-<j>", which reports print and
	// fault plans address.
	Name string
	// Servers hosts the replicas, in member order.
	Servers []int
	// Mirror is the mirrored region's size.
	Mirror int
}

// Rack is a built deployment: kernel, fabric, and one CPU scheduler per
// server (none when Spec.Cores is zero).
type Rack struct {
	Kernel *sim.Kernel
	Fabric *rdma.Fabric
	Scheds []*cpusim.Scheduler

	spec    Spec
	placed  []placedGroup
	groups  []protocol.Protocol
	bank    *nvm.Bank // the spare pre-image pages every device of the rack shares
	devices []*nvm.Device
}

// placedGroup remembers the NICs Env added for one group.
type placedGroup struct {
	name string
	env  protocol.Env
}

// Build assembles the rack in the one order every reported number depends
// on: kernel, fabric, fault plan, then the schedulers in server order, each
// taking its tenant load as it is made. Nothing else is created here; NICs
// arrive with the groups (Fabric.AddNIC draws no randomness and schedules
// nothing, so when they arrive does not matter).
func Build(spec Spec) (*Rack, error) {
	if spec.Servers < 1 {
		return nil, fmt.Errorf("topo: need at least one server, got %d", spec.Servers)
	}
	if spec.Alloc == nil {
		spec.Alloc = fresh{}
	}
	k := spec.Alloc.Kernel(spec.Seed)
	fab := spec.Alloc.Fabric(k, rdma.DefaultConfig())
	if err := fab.InstallFaultPlan(spec.Faults); err != nil {
		return nil, err
	}
	r := &Rack{Kernel: k, Fabric: fab, spec: spec, bank: new(nvm.Bank)}
	if spec.Cores > 0 {
		r.Scheds = make([]*cpusim.Scheduler, spec.Servers)
		for s := range r.Scheds {
			sched, err := colocate(k, spec.Cores, spec.TenantsPerCore)
			if err != nil {
				return nil, err
			}
			r.Scheds[s] = sched
		}
	}
	return r, nil
}

// colocate builds one server's CPU and puts perCore tenants on every core.
// It is the whole multi-tenant latency model (DESIGN.md, "Calibration
// constants and the multi-tenant latency model"), all four mechanisms:
// tick-granularity non-preemption comes with cpusim.DefaultConfig; bursty
// tenants (~300 µs bursts, ~2.7 ms idle) plus one stress hog per two cores;
// 2×cores batch daemons bursting ~4 ms every ~200 ms; and the wake penalty
// it records on the scheduler — with p = 0.015 a handler woken on this
// server enters up to 3 ms behind the run-queue head — which a CPU-driven
// datapath's replica handlers take from their server's scheduler. perCore
// = 0 is an idle server with no penalty.
func colocate(k *sim.Kernel, cores, perCore int) (*cpusim.Scheduler, error) {
	sched, err := cpusim.New(k, cpusim.DefaultConfig(cores))
	if err != nil || perCore <= 0 {
		return sched, err
	}
	sched.AddHogs(cores / 2)
	sched.AddNoise(perCore*cores, 300*sim.Microsecond, 2700*sim.Microsecond)
	sched.AddStorms(2*cores, 200*sim.Millisecond, 4*sim.Millisecond)
	sched.SetWakePenalty(0.015, 3*sim.Millisecond)
	return sched, nil
}

// Device returns a device sized for a NIC that will hold a mirror of the
// given size — how callers make the spare NIC a failover swaps in. Every
// device of the rack is on the rack's bank: a pre-image page one device
// frees is the next another takes, so the rack holds as many as its
// devices have dirty at once. A rack runs on one goroutine, and no bank is
// shared between racks.
func (r *Rack) Device(name string, mirror int) *nvm.Device {
	d := r.bank.NewDevice(name, mirror+r.spec.DevExtra)
	r.devices = append(r.devices, d)
	return d
}

// DevicePages counts the 4 KiB pages that hold a rack's device contents.
type DevicePages struct {
	Current  int // the devices' allocated current-image pages
	PreImage int // pre-image pages the devices hold for their dirty bytes
	Spare    int // pre-image pages on the rack's spare list
}

// DevicePages returns the pages the rack's devices and its bank hold now.
func (r *Rack) DevicePages() DevicePages {
	p := DevicePages{Spare: r.bank.Spare()}
	for _, d := range r.devices {
		cur, pre := d.Pages()
		p.Current += cur
		p.PreImage += pre
	}
	return p
}

// Env adds a group's client NIC and replica NICs to the fabric and returns
// them, with each replica's server scheduler, as the protocol.Env a
// datapath is built over. It builds nothing: Group places and builds in
// one call, and GroupOver builds over an Env placed earlier.
func (r *Rack) Env(g GroupSpec) (protocol.Env, error) {
	client := "client"
	if g.Name != "" {
		client = "cli/" + g.Name
	}
	env := protocol.Env{Fabric: r.Fabric, Replicas: make([]*rdma.NIC, len(g.Servers))}
	if r.Scheds != nil {
		env.Scheds = make([]*cpusim.Scheduler, len(g.Servers))
	}
	var err error
	if env.Client, err = r.Fabric.AddNIC(client, r.Device(client, g.Mirror)); err != nil {
		return protocol.Env{}, err
	}
	for j, srv := range g.Servers {
		if srv < 0 || srv >= r.spec.Servers {
			return protocol.Env{}, fmt.Errorf("topo: group %q replica %d placed on server %d of %d", g.Name, j, srv, r.spec.Servers)
		}
		name := fmt.Sprintf("server-%d", j)
		if g.Name != "" {
			name = fmt.Sprintf("srv%d/%s.%d", srv, g.Name, j)
		}
		if env.Replicas[j], err = r.Fabric.AddNIC(name, r.Device(name, g.Mirror)); err != nil {
			return protocol.Env{}, err
		}
		if r.Scheds != nil {
			env.Scheds[j] = r.Scheds[srv]
		}
	}
	r.placed = append(r.placed, placedGroup{name: g.Name, env: env})
	return env, nil
}

// Members returns the Env of the group placed under name (the zero Env if
// there is none): its client NIC and its replica NICs in member order.
func (r *Rack) Members(name string) protocol.Env {
	for _, p := range r.placed {
		if p.name == name {
			return p.env
		}
	}
	return protocol.Env{}
}

// Group places a group and builds b over it with a mirror of g.Mirror
// bytes; a registry protocol's builder is protocol.Named(name). A failed
// build leaves the rack half-made, so it closes every group built so far.
func (r *Rack) Group(g GroupSpec, b protocol.Builder, p protocol.Params) (protocol.Protocol, error) {
	env, err := r.Env(g)
	if err != nil {
		r.Close()
		return nil, err
	}
	p.MirrorSize = g.Mirror
	grp, err := r.GroupOver(env, b, p)
	if err != nil {
		r.Close()
		return nil, err
	}
	return grp, nil
}

// GroupOver is the one place a group is built: over NICs the rack already
// has (a placed group's, after failover swapped a member, or another group
// on the same machines), with the group recorded for Close.
func (r *Rack) GroupOver(env protocol.Env, b protocol.Builder, p protocol.Params) (protocol.Protocol, error) {
	g, err := b(env, p)
	if err != nil {
		return nil, err
	}
	r.groups = append(r.groups, g)
	return g, nil
}

// FirstServers returns the placement of an n-replica group on the rack's
// first n servers, replica j on server j.
func FirstServers(n int) []int {
	s := make([]int, n)
	for j := range s {
		s[j] = j
	}
	return s
}

// Run drives the simulation until some fiber calls Kernel.StopRun or the
// horizon elapses; tenant load never drains on its own, so a run always
// ends one of those two ways. With a non-nil fn it first spawns fn as the
// driver fiber called name, stops the run when fn returns, and returns fn's
// error — or an error saying the driver hung if the horizon came first. A
// nil fn is for trials that spawned their own fibers; they call StopRun
// and judge completion themselves.
func (r *Rack) Run(horizon sim.Duration, name string, fn func(f *sim.Fiber) error) error {
	if err := r.checkFaultHosts(); err != nil {
		return err
	}
	var fnErr error
	done := fn == nil
	if fn != nil {
		r.Kernel.Spawn(name, func(f *sim.Fiber) {
			defer r.Kernel.StopRun()
			fnErr = fn(f)
			done = true
		})
	}
	if err := r.Kernel.RunUntil(r.Kernel.Now().Add(horizon)); err != nil && !errors.Is(err, sim.ErrStopped) {
		return err
	}
	if fnErr != nil {
		return fnErr
	}
	if !done {
		return fmt.Errorf("topo: %s hung: horizon %v elapsed", name, horizon)
	}
	return nil
}

// checkFaultHosts rejects a fault plan that names a NIC the rack does not
// have. Such a rule matches nothing and fails nothing — the run just
// quietly is not the faulty run it claims to be — and NIC names are this
// package's to assign, so this is where a stale name is caught.
func (r *Rack) checkFaultHosts() error {
	if r.spec.Faults == nil {
		return nil
	}
	var hosts []string
	for _, nf := range r.spec.Faults.NICs {
		hosts = append(hosts, nf.Host)
	}
	for _, lf := range r.spec.Faults.Links {
		hosts = append(hosts, lf.From, lf.To)
	}
	for _, h := range hosts {
		if h != "" && r.Fabric.NIC(h) == nil {
			return fmt.Errorf("topo: fault plan names NIC %q, which the rack does not have", h)
		}
	}
	return nil
}

// Close tears down every group built through the rack. Closing a group
// twice is harmless, so owners that close their own groups still may.
func (r *Rack) Close() {
	for _, g := range r.groups {
		g.Close()
	}
}
