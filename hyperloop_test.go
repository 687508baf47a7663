package hyperloop

import (
	"bytes"
	"testing"

	"hyperloop/internal/kvstore"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

func TestClusterDefaults(t *testing.T) {
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ReplicaNICs()) != 3 {
		t.Fatalf("default replicas = %d", len(c.ReplicaNICs()))
	}
	if len(c.Schedulers()) != 3 {
		t.Fatalf("schedulers = %d", len(c.Schedulers()))
	}
	if c.ClientNIC() == nil || c.Kernel() == nil || c.Fabric() == nil {
		t.Fatal("accessors returned nil")
	}
}

func TestFacadeQuickstartFlow(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 1, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.NewGroup(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("facade payload")
	err = c.Run(func(f *Fiber) error {
		if err := g.WriteLocal(0, payload); err != nil {
			return err
		}
		return g.Write(f, 0, len(payload), true)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, nic := range c.ReplicaNICs() {
		nic.Memory().Crash()
		got := make([]byte, len(payload))
		_ = nic.Memory().Read(0, got)
		if !bytes.Equal(got, payload) {
			t.Fatalf("replica %d lost durable data", i)
		}
	}
}

func TestFacadeNaiveGroupAndLoad(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 2, Replicas: 2, MultiTenantLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.NewNaiveGroup(64*1024, NaiveEvent)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(f *Fiber) error {
		if err := g.WriteLocal(0, []byte{1, 2, 3}); err != nil {
			return err
		}
		return g.Write(f, 0, 3, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.(*NaiveGroup).ReplicaHandlerCPU() <= 0 {
		t.Fatal("naive backend consumed no replica CPU")
	}
}

func TestFacadeRunPropagatesError(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 3, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := txn.ErrLogEmpty
	if got := c.Run(func(f *Fiber) error { return wantErr }); got != wantErr {
		t.Fatalf("Run err = %v, want %v", got, wantErr)
	}
}

// TestFullStackOverFacade wires txn + kvstore + docstore through the
// facade in one scenario — the integration smoke for the public API.
func TestFullStackOverFacade(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 4, Replicas: 3, DeviceSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}

	kcfg := kvstore.Config{LogSize: 32 * 1024, DataSize: 128 * 1024, Seed: 4}
	kvGroup, err := c.NewGroup(kvstore.MirrorSizeFor(kcfg))
	if err != nil {
		t.Fatal(err)
	}
	kv, err := kvstore.Open(kvGroup, kcfg)
	if err != nil {
		t.Fatal(err)
	}

	err = c.Run(func(f *Fiber) error {
		if err := kv.Put(f, []byte("k"), []byte("v")); err != nil {
			return err
		}
		st := kv.Store()
		if _, err := st.Append(f, []wal.Entry{{Off: 64 * 1024, Data: []byte("direct txn")}}); err != nil {
			return err
		}
		_, err := st.ExecuteAll(f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := kv.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("kv get = %q, %v", v, ok)
	}
}
