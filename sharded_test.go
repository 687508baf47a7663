package hyperloop

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"hyperloop/internal/protocol"
	"hyperloop/internal/protocol/protocoltest"
)

func TestShardedClusterDefaults(t *testing.T) {
	c, err := NewShardedCluster(ShardedClusterConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Router().Shards(); got != 4 {
		t.Fatalf("default shards = %d", got)
	}
	if len(c.Schedulers()) != 4 {
		t.Fatalf("schedulers = %d", len(c.Schedulers()))
	}
	if c.Kernel() == nil || c.Fabric() == nil {
		t.Fatal("accessors returned nil")
	}
	if c.Router().CommitLog() == nil {
		t.Fatal("the zero-value config built no coordinator commit log")
	}
}

// TestIdleShardGroupHeap pins what an idle shard group costs in Go heap: a
// device allocates only the pages the model stores into, so a group holds
// its page tables, rings and control state, not two full images per NIC.
func TestIdleShardGroupHeap(t *testing.T) {
	const shards = 256
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := NewShardedCluster(ShardedClusterConfig{Seed: 1, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	perGroup := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / shards
	t.Logf("%d idle shard groups: %d KiB of heap each", shards, perGroup>>10)
	if perGroup > 128<<10 {
		t.Errorf("an idle shard group holds %d KiB of heap, want <= 128 KiB", perGroup>>10)
	}
	c.Close()
}

// TestLoadedShardGroupHeap pins what a full shard group costs in Go heap:
// every NIC of the group holds the bytes stored on it once, in its current
// image. A clean byte's durable value is its current one, so a flushed page
// is not held a second time.
func TestLoadedShardGroupHeap(t *testing.T) {
	const shards, replicas, slots, slotSize = 8, 2, 64, 4096
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := NewShardedCluster(ShardedClusterConfig{
		Seed: 1, Shards: shards, ReplicasPerShard: replicas,
		Routing: ShardRoutingConfig{Policy: ShardRange, Keys: shards * slots, SlotSize: slotSize, SlotsPerShard: slots},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := c.Router()
	val := bytes.Repeat([]byte{0x5A}, slotSize)
	if err := c.Run(func(f *Fiber) error {
		for k := uint64(0); k < shards*slots; k++ {
			if err := r.Put(f, k, val); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	perGroup := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / shards
	stored := int64(slots * slotSize) // per NIC
	t.Logf("%d full shard groups: %d KiB of heap each, %d KiB stored per NIC", shards, perGroup>>10, stored>>10)
	if limit := (replicas + 1) * stored * 3 / 2; perGroup > limit {
		t.Errorf("a full shard group holds %d KiB of heap, want <= %d KiB", perGroup>>10, limit>>10)
	}
}

func TestShardedFacadeFlow(t *testing.T) {
	c, err := NewShardedCluster(ShardedClusterConfig{
		Seed:             7,
		Shards:           8,
		ReplicasPerShard: 2,
		Servers:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := c.Router()
	err = c.Run(func(f *Fiber) error {
		for k := uint64(0); k < 32; k++ {
			if err := r.Put(f, k, []byte{byte(k), byte(k + 1)}); err != nil {
				return err
			}
		}
		// A cross-shard transaction through the facade types.
		return r.Txn(f, []ShardWrite{
			{Key: 100, Data: []byte("a")},
			{Key: 200, Data: []byte("b")},
			{Key: 300, Data: []byte("c")},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 32; k++ {
		got, err := r.Get(k)
		if err != nil || !bytes.Equal(got, []byte{byte(k), byte(k + 1)}) {
			t.Fatalf("get %d = %v (%v)", k, got, err)
		}
	}
	if got, _ := r.Get(200); !bytes.Equal(got, []byte("b")) {
		t.Fatalf("txn write lost: %v", got)
	}
	st := r.Stats()
	if st.Puts != 32 || st.Commits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShardedClusterNaiveAffinity(t *testing.T) {
	c, err := NewShardedCluster(ShardedClusterConfig{
		Seed:             3,
		Shards:           6,
		ReplicasPerShard: 2,
		Servers:          6,
		CoresPerServer:   2,
		Protocol:         "naive",
		Placement:        PlaceTenantAffinity,
		TenantOf:         func(s int) int { return s / 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := c.Router()
	if err := c.Run(func(f *Fiber) error {
		return r.Put(f, 42, []byte("naive"))
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Get(42); string(got) != "naive" {
		t.Fatalf("get = %q", got)
	}
}

func TestShardedClusterBadConfig(t *testing.T) {
	if _, err := NewShardedCluster(ShardedClusterConfig{Protocol: "no-such-protocol"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := NewShardedCluster(ShardedClusterConfig{
		Placement: PlaceTenantAffinity, // no TenantOf
	}); err == nil {
		t.Fatal("affinity without TenantOf accepted")
	}
	// A negative tenant used to place a replica on server -1 and panic
	// indexing the schedulers.
	if _, err := NewShardedCluster(ShardedClusterConfig{
		Placement: PlaceTenantAffinity, TenantOf: func(s int) int { return s - 1 },
	}); err == nil {
		t.Fatal("negative tenant accepted")
	}
}

func TestShardedClusterCommitLog(t *testing.T) {
	c, err := NewShardedCluster(ShardedClusterConfig{
		Seed:             3,
		Shards:           4,
		ReplicasPerShard: 2,
		Servers:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := c.Router()
	err = c.Run(func(f *Fiber) error {
		writes := []ShardWrite{
			{Key: 10, Data: []byte("x")},
			{Key: 11, Data: []byte("y")},
		}
		// Crash the coordinator right after the commit point, then
		// recover through the facade: the transaction must roll forward.
		step := 0
		r.SetTxnStepHook(func(s TxnStep, participant int) error {
			step++
			if s == TxnStepLogCommit {
				return ErrTxnCoordinatorCrash
			}
			return nil
		})
		if err := r.Txn(f, writes); err != ErrTxnCoordinatorCrash {
			return err
		}
		r.SetTxnStepHook(nil)
		rs, err := r.Recover(f)
		if err != nil {
			return err
		}
		if rs.Back != 0 || rs.Forward == 0 || rs.Records != 1 {
			t.Errorf("recover stats = %+v, want roll-forward of one record", rs)
		}
		// Retried transaction commits and the data is readable.
		return r.Txn(f, writes)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Get(10); !bytes.Equal(got, []byte("x")) {
		t.Fatalf("get(10) = %q", got)
	}
	st := r.Stats()
	if st.Commits != 1 || st.Aborts != 0 || st.InDoubt != 0 {
		t.Fatalf("stats = %+v, want exactly one commit", st)
	}
}

// stopChain is the chain protocol behind a protocoltest.StopGroup, so a
// facade test can freeze individual shards' groups. NewShardedCluster
// builds groups by registry name — the coordinator-log group first, then
// shard 0, 1, … — and the builder appends each wrapper to stopChainGroups.
const stopChain = "test-stop-chain"

var stopChainGroups []*protocoltest.StopGroup

func init() {
	protocol.Register(stopChain, "chain behind a test StopGroup",
		func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) {
			g, err := protocol.Build("chain", env, p)
			if err != nil {
				return nil, err
			}
			stop := protocoltest.NewStopGroup(g)
			stopChainGroups = append(stopChainGroups, stop)
			return stop, nil
		})
}

// TestShardedClusterCrashSubsets drives one representative subset per
// parallel 2PC step through the facade: in a span-4 transaction shards 0
// and 2 complete the step, shards 1 and 3 are frozen inside it (not locked;
// record written but tail not; record and tail written, nothing applied;
// memcpy applied but head not advanced; head advanced but still locked),
// the coordinator dies, and Recover must finish or undo the transaction
// everywhere — on a cluster whose config asks for nothing.
func TestShardedClusterCrashSubsets(t *testing.T) {
	const shards = 4
	cases := []struct {
		step      TxnStep
		frozenOps int // group ops a frozen shard completes: lock, record, tail, memcpy, head
		committed bool
		back      int // shards Recover rolls back: the locked ones, before the commit point
	}{
		{TxnStepLock, 0, false, 2},
		{TxnStepAppend, 2, false, shards},
		{TxnStepExecute, 3, true, 0},
		{TxnStepExecute, 4, true, 0},
		{TxnStepExecute, 5, true, 0},
	}
	for _, tc := range cases {
		stopChainGroups = nil
		c, err := NewShardedCluster(ShardedClusterConfig{
			Seed: 5, Shards: shards, ReplicasPerShard: 2, Servers: 2,
			Protocol: stopChain,
			Routing:  ShardRoutingConfig{Policy: ShardRange, Keys: shards},
		})
		if err != nil {
			t.Fatal(err)
		}
		groups := stopChainGroups[len(stopChainGroups)-shards:] // after the coordinator log's
		r := c.Router()
		writes := make([]ShardWrite, shards)
		for i := range writes {
			writes[i] = ShardWrite{Key: uint64(i), Data: []byte{'w', byte('0' + i)}}
		}
		err = c.Run(func(f *Fiber) error {
			groups[1].Budget, groups[3].Budget = tc.frozenOps, tc.frozenOps
			r.SetTxnStepHook(func(s TxnStep, participant int) error {
				if s == tc.step {
					return ErrTxnCoordinatorCrash
				}
				return nil
			})
			if err := r.Txn(f, writes); !errors.Is(err, ErrTxnCoordinatorCrash) {
				return fmt.Errorf("txn = %v, want the injected crash", err)
			}
			r.SetTxnStepHook(nil)
			groups[1].Budget, groups[3].Budget = -1, -1
			rs, err := r.Recover(f)
			if err != nil {
				return err
			}
			if rs.Back != tc.back || tc.committed != (rs.Forward != 0) {
				t.Errorf("%v/%d: recover stats = %+v, committed = %v", tc.step, tc.frozenOps, rs, tc.committed)
			}
			for i := 0; i < shards; i++ {
				st := r.Shard(i).Store
				want := make([]byte, 2)
				if tc.committed {
					want = writes[i].Data
				}
				if got, err := st.ReadData(0, 2); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%v: shard %d data = %q (%v), want %q", tc.step, i, got, err, want)
				}
				if locked, err := st.Locked(); err != nil || locked {
					t.Errorf("%v: shard %d lock leaked (%v)", tc.step, i, err)
				}
				if used, err := st.LogUsed(); err != nil || used != 0 {
					t.Errorf("%v: shard %d log used = %d (%v)", tc.step, i, used, err)
				}
			}
			if rs, err := r.Recover(f); err != nil || rs != (ShardRecoverStats{}) {
				t.Errorf("%v: second recover = %+v, %v", tc.step, rs, err)
			}
			return r.Txn(f, writes) // the client's retry commits
		})
		if err != nil {
			t.Errorf("%v: %v", tc.step, err)
		}
		for i := range writes {
			if got, _ := r.Get(uint64(i)); !bytes.Equal(got, writes[i].Data) {
				t.Errorf("%v: get(%d) after retry = %q", tc.step, i, got)
			}
		}
		c.Close()
	}
}
