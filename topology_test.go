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

// TestTenantPenaltyWhicheverConstructor: under MultiTenantLoad every
// CPU-driven group carries the wake penalty, whichever constructor built
// it. "naive" in the registry and NewNaiveGroup(NaiveEvent) are the same
// datapath, so the same writes must end at the same virtual instant after
// the same number of kernel events.
func TestTenantPenaltyWhicheverConstructor(t *testing.T) {
	run := func(build func(c *Cluster) (Protocol, error)) facadeGolden {
		t.Helper()
		c, err := NewCluster(ClusterConfig{Seed: 1, MultiTenantLoad: true})
		if err != nil {
			t.Fatal(err)
		}
		g, err := build(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(func(f *Fiber) error { return durableWrites(f, g, 400) }); err != nil {
			t.Fatal(err)
		}
		msgs, bytes := c.Fabric().Stats()
		return goldenOf(c.Kernel(), msgs, bytes)
	}
	registry := run(func(c *Cluster) (Protocol, error) { return c.NewProtocolGroup("naive", 1<<20) })
	direct := run(func(c *Cluster) (Protocol, error) { return c.NewNaiveGroup(1<<20, NaiveEvent) })
	if registry != direct {
		t.Fatalf("NewProtocolGroup(\"naive\") ended at %+v, NewNaiveGroup(NaiveEvent) at %+v", registry, direct)
	}
}
