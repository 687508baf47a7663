package hyperloop

import (
	"bytes"
	"fmt"
	"testing"

	"hyperloop/internal/sim"
)

// facadeGolden is what one facade-built run must reproduce: the kernel's
// executed-event count, the virtual instant the driver finished at, and the
// fabric's wire totals.
type facadeGolden struct {
	executed    int64
	now         sim.Time
	msgs, bytes int64
}

func goldenOf(k *sim.Kernel, msgs, bytes int64) facadeGolden {
	return facadeGolden{executed: k.Executed(), now: k.Now(), msgs: msgs, bytes: bytes}
}

// durableWrites drives n durable 1 KiB group writes at rotating offsets.
func durableWrites(f *Fiber, g Protocol, n int) error {
	payload := bytes.Repeat([]byte{0xa5}, 1024)
	for i := 0; i < n; i++ {
		off := (i % 64) * 1024
		if err := g.WriteLocal(off, payload); err != nil {
			return err
		}
		if err := g.Write(f, off, len(payload), true); err != nil {
			return fmt.Errorf("write %d: %w", i, err)
		}
	}
	return nil
}

// TestFacadeTopologyGolden pins the virtual numbers of facade-built
// clusters. The goldens were recorded on the commit before internal/topo
// existed (506ce1e), so they judge the refactor: build order, NIC naming,
// device sizing and tenant-load wiring of NewCluster and NewShardedCluster
// may not move a single event.
func TestFacadeTopologyGolden(t *testing.T) {
	legs := []struct {
		name string
		run  func(seed uint64) (facadeGolden, error)
		want map[uint64]facadeGolden
	}{
		{"chain", func(seed uint64) (facadeGolden, error) {
			c, err := NewCluster(ClusterConfig{Seed: seed})
			if err != nil {
				return facadeGolden{}, err
			}
			g, err := c.NewGroup(1 << 20)
			if err != nil {
				return facadeGolden{}, err
			}
			err = c.Run(func(f *Fiber) error { return durableWrites(f, g, 200) })
			msgs, bytes := c.Fabric().Stats()
			return goldenOf(c.Kernel(), msgs, bytes), err
		}, map[uint64]facadeGolden{
			1:  {13199, 2465564, 2799, 999170},
			2:  {13199, 2466483, 2799, 999170},
			42: {13199, 2466151, 2799, 999170},
		}},
		{"naive-tenants", func(seed uint64) (facadeGolden, error) {
			c, err := NewCluster(ClusterConfig{Seed: seed, MultiTenantLoad: true})
			if err != nil {
				return facadeGolden{}, err
			}
			g, err := c.NewNaiveGroup(1<<20, NaiveEvent)
			if err != nil {
				return facadeGolden{}, err
			}
			err = c.Run(func(f *Fiber) error { return durableWrites(f, g, 200) })
			msgs, bytes := c.Fabric().Stats()
			return goldenOf(c.Kernel(), msgs, bytes), err
		}, map[uint64]facadeGolden{
			1:  {110396, 191602929, 2799, 781570},
			2:  {69482, 113399612, 2799, 781570},
			42: {75411, 125391963, 2799, 781570},
		}},
		{"sharded-txn", func(seed uint64) (facadeGolden, error) {
			c, err := NewShardedCluster(ShardedClusterConfig{
				Seed: seed, Shards: 8,
				Routing: ShardRoutingConfig{Policy: ShardRange, Keys: 8},
			})
			if err != nil {
				return facadeGolden{}, err
			}
			defer c.Close()
			err = c.Run(func(f *Fiber) error {
				for i := 0; i < 50; i++ {
					span := []int{1, 2, 4}[i%3]
					writes := make([]ShardWrite, span)
					for j := range writes {
						writes[j] = ShardWrite{Key: uint64((i + j) % 8), Data: []byte{byte(i), byte(j)}}
					}
					if err := c.Router().Txn(f, writes); err != nil {
						return fmt.Errorf("txn %d: %w", i, err)
					}
				}
				return nil
			})
			msgs, bytes := c.Fabric().Stats()
			return goldenOf(c.Kernel(), msgs, bytes), err
		}, map[uint64]facadeGolden{
			1:  {48425, 2408595, 8974, 1483902},
			2:  {48420, 2406420, 8974, 1483902},
			42: {48436, 2406808, 8974, 1483902},
		}},
	}
	for _, leg := range legs {
		for _, seed := range []uint64{1, 2, 42} {
			got, err := leg.run(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", leg.name, seed, err)
			}
			if want := leg.want[seed]; got != want {
				t.Errorf("%s seed %d: got %+v, want %+v", leg.name, seed, got, want)
			}
		}
	}
}

// constructorRun is what one facade constructor's run must reproduce: the
// virtual instant the op program ended at, the group's issued/completed
// counts, the kernel's executed events and the fabric's wire totals.
type constructorRun struct {
	now               sim.Time
	issued, completed int64
	executed          int64
	msgs, bytes       int64
}

// opProgram drives every group primitive: a durable write, a memcpy, a
// CAS on every member and a flush, twenty rounds at rotating offsets.
func opProgram(f *Fiber, g Protocol) error {
	payload := bytes.Repeat([]byte{0x5a}, 512)
	exec := make([]bool, g.GroupSize())
	for j := range exec {
		exec[j] = true
	}
	for i := 0; i < 20; i++ {
		off := (i % 16) * 1024
		if err := g.WriteLocal(off, payload); err != nil {
			return err
		}
		if err := g.Write(f, off, len(payload), true); err != nil {
			return fmt.Errorf("round %d write: %w", i, err)
		}
		if err := g.Memcpy(f, off, 64<<10+off, len(payload), false); err != nil {
			return fmt.Errorf("round %d memcpy: %w", i, err)
		}
		if _, err := g.CAS(f, 128<<10, uint64(i), uint64(i+1), exec); err != nil {
			return fmt.Errorf("round %d cas: %w", i, err)
		}
		if err := g.Flush(f, 64<<10+off, len(payload)); err != nil {
			return fmt.Errorf("round %d flush: %w", i, err)
		}
	}
	return nil
}

// TestFacadeConstructorGolden pins every facade group constructor, on an
// idle and on a MultiTenantLoad cluster: the same op program must end at
// the same virtual instant with the same counters. No report reaches
// NewNaiveGroup's polling and pinned modes or NewGroupOver, so this is
// what holds those paths still when the facade's wiring changes. The
// registry's "naive" and NewNaiveGroup(NaiveEvent) are one datapath and
// pin one value on either cluster: under MultiTenantLoad both carry the
// wake penalty, whichever constructor built them.
func TestFacadeConstructorGolden(t *testing.T) {
	type ctor struct {
		name  string
		build func(c *Cluster) (Protocol, error)
	}
	const mirror = 256 << 10
	ctors := []ctor{
		{"NewGroup", func(c *Cluster) (Protocol, error) { return c.NewGroup(mirror) }},
		{"NewNaiveGroup/event", func(c *Cluster) (Protocol, error) { return c.NewNaiveGroup(mirror, NaiveEvent) }},
		{"NewNaiveGroup/polling", func(c *Cluster) (Protocol, error) { return c.NewNaiveGroup(mirror, NaivePolling) }},
		{"NewNaiveGroup/pinned", func(c *Cluster) (Protocol, error) { return c.NewNaiveGroup(mirror, NaivePinned) }},
		{"NewGroupOver", func(c *Cluster) (Protocol, error) { return c.NewGroupOver(c.ReplicaNICs(), mirror) }},
	}
	for _, name := range Protocols() {
		ctors = append(ctors, ctor{"NewProtocolGroup/" + name, func(c *Cluster) (Protocol, error) {
			return c.NewProtocolGroup(name, mirror)
		}})
	}
	want := map[string]constructorRun{
		"NewGroup loaded=false":                         {796836, 80, 80, 4478, 759, 173810},
		"NewNaiveGroup/event loaded=false":              {1663037, 80, 80, 2559, 759, 86770},
		"NewNaiveGroup/polling loaded=false":            {12440078, 80, 80, 3762, 759, 86770},
		"NewNaiveGroup/pinned loaded=false":             {976037, 80, 80, 2079, 759, 86770},
		"NewGroupOver loaded=false":                     {796836, 80, 80, 4478, 759, 173810},
		"NewProtocolGroup/bcast loaded=false":           {301457, 80, 80, 4992, 1077, 99510},
		"NewProtocolGroup/bcast-maj loaded=false":       {299024, 80, 80, 4959, 1077, 99510},
		"NewProtocolGroup/chain loaded=false":           {796836, 80, 80, 4478, 759, 173810},
		"NewProtocolGroup/fanout loaded=false":          {658326, 80, 80, 5577, 1079, 139250},
		"NewProtocolGroup/naive loaded=false":           {1663037, 80, 80, 2559, 759, 86770},
		"NewProtocolGroup/test-stop-chain loaded=false": {796836, 80, 80, 4478, 759, 173810},
		"NewGroup loaded=true":                          {796836, 80, 80, 4909, 759, 173810},
		"NewNaiveGroup/event loaded=true":               {35360337, 80, 80, 21030, 759, 86770},
		"NewNaiveGroup/polling loaded=true":             {339527079, 80, 80, 191076, 759, 86770},
		"NewNaiveGroup/pinned loaded=true":              {976037, 80, 80, 2602, 759, 86770},
		"NewGroupOver loaded=true":                      {796836, 80, 80, 4909, 759, 173810},
		"NewProtocolGroup/bcast loaded=true":            {301457, 80, 80, 5165, 1077, 99510},
		"NewProtocolGroup/bcast-maj loaded=true":        {299024, 80, 80, 5130, 1077, 99510},
		"NewProtocolGroup/chain loaded=true":            {796836, 80, 80, 4909, 759, 173810},
		"NewProtocolGroup/fanout loaded=true":           {658326, 80, 80, 5942, 1079, 139250},
		"NewProtocolGroup/naive loaded=true":            {35360337, 80, 80, 21030, 759, 86770},
		"NewProtocolGroup/test-stop-chain loaded=true":  {796836, 80, 80, 4909, 759, 173810},
	}
	for _, loaded := range []bool{false, true} {
		for _, ct := range ctors {
			key := fmt.Sprintf("%s loaded=%v", ct.name, loaded)
			c, err := NewCluster(ClusterConfig{Seed: 1, MultiTenantLoad: loaded})
			if err != nil {
				t.Fatal(err)
			}
			g, err := ct.build(c)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if err := c.Run(func(f *Fiber) error { return opProgram(f, g) }); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			g.Close()
			var got constructorRun
			got.now, got.executed = c.Kernel().Now(), c.Kernel().Executed()
			got.issued, got.completed = g.Stats()
			got.msgs, got.bytes = c.Fabric().Stats()
			if w, ok := want[key]; !ok || got != w {
				t.Errorf("%s: got %+v, want %+v", key, got, w)
			}
		}
	}
}
