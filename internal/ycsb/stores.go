package ycsb

import (
	"fmt"

	"hyperloop/internal/docstore"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/sim"
)

// KV adapts the replicated key-value store: record i is key Key(i), and a
// scan reads count keys from Key(start).
func KV(db *kvstore.DB) DB { return kvDB{db} }

type kvDB struct{ db *kvstore.DB }

func (a kvDB) Read(f *sim.Fiber, key int) error {
	if _, ok := a.db.Get([]byte(Key(key))); !ok {
		return fmt.Errorf("kv read: missing key %d", key)
	}
	return nil
}

func (a kvDB) Update(f *sim.Fiber, key int, v []byte) error {
	return a.db.Put(f, []byte(Key(key)), v)
}

func (a kvDB) Insert(f *sim.Fiber, key int, v []byte) error { return a.Update(f, key, v) }

func (a kvDB) Scan(f *sim.Fiber, start, count int) error {
	a.db.Scan([]byte(Key(start)), count)
	return nil
}

func (a kvDB) ReadModifyWrite(f *sim.Fiber, key int, v []byte) error {
	if err := a.Read(f, key); err != nil {
		return err
	}
	return a.Update(f, key, v)
}

// docTable is the collection YCSB records live in.
const docTable = "usertable"

// Doc adapts the document store: record i is the document
// {"_id": Key(i), "field0": value} in collection "usertable".
func Doc(st *docstore.Store) DB { return docDB{st} }

type docDB struct{ st *docstore.Store }

func (a docDB) Read(f *sim.Fiber, key int) error {
	_, err := a.st.FindID(docTable, Key(key))
	return err
}

func (a docDB) Update(f *sim.Fiber, key int, v []byte) error {
	return a.st.Update(f, docTable, Key(key), docstore.Doc{"field0": string(v)})
}

func (a docDB) Insert(f *sim.Fiber, key int, v []byte) error {
	return a.st.Insert(f, docTable, docstore.Doc{"_id": Key(key), "field0": string(v)})
}

func (a docDB) Scan(f *sim.Fiber, start, count int) error {
	_, err := a.st.Scan(docTable, Key(start), count)
	return err
}

func (a docDB) ReadModifyWrite(f *sim.Fiber, key int, v []byte) error {
	if err := a.Read(f, key); err != nil {
		return err
	}
	return a.Update(f, key, v)
}
