package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	_ "hyperloop/internal/naive"
	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
)

// TestBackendEquivalence runs the same operation program over the chain,
// fan-out and naive backends and asserts all three leave identical store
// state — the interchangeability claim behind the paper's "under 1000
// lines of code" application ports.
func TestBackendEquivalence(t *testing.T) {
	cfg := smallConfig()
	build := func(name string) (*sim.Kernel, txn.Replicator) {
		r, g := testGroup(t, 31, 4, name, cfg)
		return r.Kernel, g
	}

	program := func(f *sim.Fiber, db *DB) error {
		for i := 0; i < 30; i++ {
			key := []byte(fmt.Sprintf("k%02d", i%10))
			val := []byte(fmt.Sprintf("value-%03d", i))
			if err := db.Put(f, key, val); err != nil {
				return fmt.Errorf("put %d: %w", i, err)
			}
			if i%7 == 3 {
				if err := db.Delete(f, key); err != nil {
					return fmt.Errorf("delete %d: %w", i, err)
				}
			}
		}
		return db.Checkpoint(f)
	}

	states := make(map[string]map[string]string)
	for _, name := range []string{"chain", "fanout", "naive"} {
		k, r := build(name)
		db, err := Open(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var progErr error
		k.Spawn(name, func(f *sim.Fiber) { progErr = program(f, db) })
		if err := k.RunUntil(k.Now().Add(30 * sim.Second)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if progErr != nil {
			t.Fatalf("%s: %v", name, progErr)
		}
		state := make(map[string]string)
		for _, p := range db.Scan(nil, 1000) {
			state[string(p.Key)] = string(p.Value)
		}
		states[name] = state
	}
	for _, name := range []string{"fanout", "naive"} {
		if len(states[name]) != len(states["chain"]) {
			t.Fatalf("%s has %d keys, chain %d", name, len(states[name]), len(states["chain"]))
		}
		for k, v := range states["chain"] {
			if states[name][k] != v {
				t.Fatalf("%s[%s] = %q, chain %q", name, k, states[name][k], v)
			}
		}
	}
}

// TestKVOverNaiveRecovery exercises the crash-recovery path over the
// CPU-driven backend too.
func TestKVOverNaiveRecovery(t *testing.T) {
	cfg := smallConfig()
	r, g := testGroup(t, 13, 4, "naive", cfg)
	k, clientDev := r.Kernel, r.Members("").Client.Memory()
	db, err := Open(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("writer", func(f *sim.Fiber) {
		for i := 0; i < 10; i++ {
			if err := db.Put(f, []byte(fmt.Sprintf("nk%d", i)), []byte("nv")); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	})
	if err := k.RunUntil(k.Now().Add(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	clientDev.Crash()
	k.Spawn("recover", func(f *sim.Fiber) {
		if err := db.Recover(f); err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	if err := k.RunUntil(k.Now().Add(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 10 {
		t.Fatalf("len after recovery = %d", db.Len())
	}
	if v, ok := db.Get([]byte("nk7")); !ok || !bytes.Equal(v, []byte("nv")) {
		t.Fatalf("nk7 = %q, %v", v, ok)
	}
}
