package main

import (
	"bytes"
	"fmt"

	root "hyperloop"
	"hyperloop/internal/cpusim"
	"hyperloop/internal/docstore"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/ycsb"
)

const (
	valueSize = 1024
	poolSize  = 256 // distinct payloads the op stream draws values from
	maxSpan   = 4   // keys in the widest transaction
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opTxn
)

// op is one generated application operation: n keys (1 except for
// transactions) and the payload-pool index written to each.
type op struct {
	kind opKind
	n    uint8
	keys [maxSpan]int32
	vals [maxSpan]uint8
}

// app adapts one store to the op stream.
type app interface {
	load(f *sim.Fiber, key, val int) error
	do(f *sim.Fiber, o *op) error
	// verify reads key back through the store's public read call and
	// compares it with payload val.
	verify(key, val int) error
	// spanName names the adapter span after the store call do makes for o.
	spanName(o *op) string
}

// deployment is one built cluster + group + store, plus the accessors the
// per-layer counters read.
type deployment struct {
	kernel      *sim.Kernel
	fabric      *rdma.Fabric
	scheds      []*cpusim.Scheduler
	run         func(func(*sim.Fiber) error) error
	app         app
	router      *root.ShardRouter // shard-2pc only
	checkpoints func() int64
	close       func()
}

// workload fixes everything about one benchmark workload except the seed.
type workload struct {
	name    string
	records int
	// Shares of reads and plain writes; the rest are transactions.
	read, write float64
	// windowOps is the fixed prefix of the timed phase over which every
	// virtual-clock metric and exact count is taken, so they depend on
	// the seed alone and not on how fast the host ran.
	windowOps int
	// batchOps is the unit host metrics are measured in; the timed phase
	// is whole batches and host metrics are medians over them.
	batchOps int
	build    func(seed uint64, t *tap, p *payloads) (*deployment, error)
}

// The op counts were sized on a 2-core host so that the window completes
// in 2–3 s of the 10 s timed phase. kv-naive-tenants takes about 7 s: its
// virtual percentiles differ from seed to seed with the tenant noise, and a
// window three times longer brought its p99's spread from 5.5 % under 3 %,
// which is what lets virt_write_p99_us carry a 10 % bound. See README.md.
var workloads = []workload{
	{name: "kv-chain", records: 1000, read: 0.5, write: 0.5,
		windowOps: 100_000, batchOps: 5_000, build: buildKV(false)},
	{name: "kv-naive-tenants", records: 1000, read: 0.5, write: 0.5,
		windowOps: 120_000, batchOps: 2_000, build: buildKV(true)},
	{name: "shard-2pc", records: 4096, read: 0.5, write: 0.1,
		windowOps: 24_000, batchOps: 1_200, build: buildShard},
	{name: "doc-chain-tenants", records: 1000, read: 0.5, write: 0.5,
		windowOps: 24_000, batchOps: 1_200, build: buildDoc},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// payloads is the value pool and the pre-rendered keys, built once per run
// so the timed loop hands the stores ready inputs and does no formatting.
type payloads struct {
	bytes   [poolSize][]byte
	strs    [poolSize]string
	docs    [poolSize]docstore.Doc
	keys    []string
	keyByte [][]byte
}

func newPayloads(rng *sim.RNG, records int) *payloads {
	p := &payloads{}
	for i := range p.bytes {
		b := make([]byte, valueSize)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		p.bytes[i] = b
		p.strs[i] = string(b)
		p.docs[i] = docstore.Doc{"field0": p.strs[i]}
	}
	for i := 0; i < records; i++ {
		k := ycsb.Key(i)
		p.keys = append(p.keys, k)
		p.keyByte = append(p.keyByte, []byte(k))
	}
	return p
}

// opGen draws the op stream. Keys follow YCSB's scrambled zipfian.
type opGen struct {
	w       workload
	rng     *sim.RNG
	keys    ycsb.Generator
	shardOf func(key uint64) int
}

func newOpGen(w workload, rng *sim.RNG, d *deployment) *opGen {
	g := &opGen{w: w, rng: rng, keys: ycsb.NewScrambledZipfian(rng.Fork(), w.records)}
	if d.router != nil {
		g.shardOf = d.router.ShardOf
	}
	return g
}

var txnSpans = [...]uint8{1, 2, 4}

func (g *opGen) next(o *op) {
	r := g.rng.Float64()
	o.n = 1
	o.keys[0] = int32(g.keys.Next(g.w.records))
	o.vals[0] = uint8(g.rng.Intn(poolSize))
	switch {
	case r < g.w.read:
		o.kind = opRead
	case r < g.w.read+g.w.write:
		o.kind = opWrite
	default:
		o.kind = opTxn
		// Each further key must land on a shard the transaction does not
		// touch yet, so a span-k transaction has exactly k participants.
		want := txnSpans[g.rng.Intn(len(txnSpans))]
		for o.n < want {
			k := int32(g.keys.Next(g.w.records))
			fresh := true
			for i := uint8(0); i < o.n; i++ {
				if g.shardOf(uint64(k)) == g.shardOf(uint64(o.keys[i])) {
					fresh = false
					break
				}
			}
			if fresh {
				o.keys[o.n] = k
				o.vals[o.n] = uint8(g.rng.Intn(poolSize))
				o.n++
			}
		}
	}
}

// --- kvstore ---------------------------------------------------------

type kvApp struct {
	db *kvstore.DB
	p  *payloads
}

func (a *kvApp) load(f *sim.Fiber, key, val int) error {
	return a.db.Put(f, a.p.keyByte[key], a.p.bytes[val])
}

func (a *kvApp) do(f *sim.Fiber, o *op) error {
	if o.kind == opRead {
		if _, ok := a.db.Get(a.p.keyByte[o.keys[0]]); !ok {
			return fmt.Errorf("kv get: key %d missing", o.keys[0])
		}
		return nil
	}
	return a.db.Put(f, a.p.keyByte[o.keys[0]], a.p.bytes[o.vals[0]])
}

func (a *kvApp) verify(key, val int) error {
	v, ok := a.db.Get(a.p.keyByte[key])
	if !ok || !bytes.Equal(v, a.p.bytes[val]) {
		return fmt.Errorf("kv read-back: key %d does not hold its last acknowledged value", key)
	}
	return nil
}

func (a *kvApp) spanName(o *op) string {
	if o.kind == opRead {
		return "kvstore.Get"
	}
	return "kvstore.Put"
}

// buildKV builds the KV store over the NIC-offloaded chain, or over the
// CPU-driven baseline under tenant load.
func buildKV(naiveTenants bool) func(uint64, *tap, *payloads) (*deployment, error) {
	return func(seed uint64, t *tap, p *payloads) (*deployment, error) {
		c, err := root.NewCluster(root.ClusterConfig{Seed: seed, MultiTenantLoad: naiveTenants})
		if err != nil {
			return nil, err
		}
		cfg := kvstore.DefaultConfig()
		// A checkpoint of 1 000 records of 1 KiB needs a little over 1 MiB.
		cfg.DataSize = 2 << 20
		var g protocol.Protocol
		if naiveTenants {
			g, err = c.NewNaiveGroup(kvstore.MirrorSizeFor(cfg), root.NaiveEvent)
		} else {
			g, err = c.NewGroup(kvstore.MirrorSizeFor(cfg))
		}
		if err != nil {
			return nil, err
		}
		t.kernel = c.Kernel()
		db, err := kvstore.Open(t.wrap(g, append(c.ReplicaNICs(), c.ClientNIC())...), cfg)
		if err != nil {
			return nil, err
		}
		return &deployment{
			kernel: c.Kernel(), fabric: c.Fabric(), scheds: c.Schedulers(), run: c.Run,
			app:         &kvApp{db: db, p: p},
			checkpoints: func() int64 { return db.Stats().Checkpoints },
			close:       g.Close,
		}, nil
	}
}

// --- docstore --------------------------------------------------------

const docColl = "usertable"

type docApp struct {
	st *docstore.Store
	p  *payloads
}

func (a *docApp) load(f *sim.Fiber, key, val int) error {
	return a.st.Insert(f, docColl, docstore.Doc{"_id": a.p.keys[key], "field0": a.p.strs[val]})
}

func (a *docApp) do(f *sim.Fiber, o *op) error {
	if o.kind == opRead {
		_, err := a.st.FindID(docColl, a.p.keys[o.keys[0]])
		return err
	}
	return a.st.Update(f, docColl, a.p.keys[o.keys[0]], a.p.docs[o.vals[0]])
}

func (a *docApp) verify(key, val int) error {
	doc, err := a.st.FindID(docColl, a.p.keys[key])
	if err != nil {
		return err
	}
	if s, _ := doc["field0"].(string); s != a.p.strs[val] {
		return fmt.Errorf("doc read-back: %s does not hold its last acknowledged value", a.p.keys[key])
	}
	return nil
}

func (a *docApp) spanName(o *op) string {
	if o.kind == opRead {
		return "docstore.FindID"
	}
	return "docstore.Update"
}

func buildDoc(seed uint64, t *tap, p *payloads) (*deployment, error) {
	c, err := root.NewCluster(root.ClusterConfig{Seed: seed, MultiTenantLoad: true})
	if err != nil {
		return nil, err
	}
	cfg := docstore.DefaultConfig()
	g, err := c.NewGroup(docstore.MirrorSizeFor(cfg))
	if err != nil {
		return nil, err
	}
	t.kernel = c.Kernel()
	st, err := docstore.Open(t.wrap(g, append(c.ReplicaNICs(), c.ClientNIC())...), cfg)
	if err != nil {
		return nil, err
	}
	return &deployment{
		kernel: c.Kernel(), fabric: c.Fabric(), scheds: c.Schedulers(), run: c.Run,
		app:         &docApp{st: st, p: p},
		checkpoints: func() int64 { return 0 },
		close:       g.Close,
	}, nil
}

// --- shard router ----------------------------------------------------

const shardCount = 8

type shardApp struct {
	r *root.ShardRouter
	p *payloads
	// writes is reused across transactions; Router.Txn does not keep it.
	writes [maxSpan]root.ShardWrite
}

func (a *shardApp) load(f *sim.Fiber, key, val int) error {
	return a.r.Put(f, uint64(key), a.p.bytes[val])
}

func (a *shardApp) do(f *sim.Fiber, o *op) error {
	switch o.kind {
	case opRead:
		v, err := a.r.Get(uint64(o.keys[0]))
		if err == nil && v == nil {
			err = fmt.Errorf("router get: key %d missing", o.keys[0])
		}
		return err
	case opWrite:
		return a.r.Put(f, uint64(o.keys[0]), a.p.bytes[o.vals[0]])
	default:
		for i := uint8(0); i < o.n; i++ {
			a.writes[i] = root.ShardWrite{Key: uint64(o.keys[i]), Data: a.p.bytes[o.vals[i]]}
		}
		return a.r.Txn(f, a.writes[:o.n])
	}
}

func (a *shardApp) verify(key, val int) error {
	v, err := a.r.Get(uint64(key))
	if err != nil {
		return err
	}
	if !bytes.Equal(v, a.p.bytes[val]) {
		return fmt.Errorf("router read-back: key %d does not hold its last acknowledged value", key)
	}
	return nil
}

var shardSpanNames = [...]string{0: "shard.Get", 1: "shard.Txn/1", 2: "shard.Txn/2", 4: "shard.Txn/4"}

func (a *shardApp) spanName(o *op) string {
	switch o.kind {
	case opRead:
		return "shard.Get"
	case opWrite:
		return "shard.Put"
	default:
		return shardSpanNames[o.n]
	}
}

func buildShard(seed uint64, t *tap, p *payloads) (*deployment, error) {
	chainTap = t
	defer func() { chainTap = nil }()
	sc, err := root.NewShardedCluster(root.ShardedClusterConfig{
		Seed:     seed,
		Shards:   shardCount,
		Protocol: tappedChain,
		Routing: root.ShardRoutingConfig{
			SlotSize: valueSize,
			// The hash spreads 4 096 keys unevenly; 1.5× the mean is ample.
			SlotsPerShard: 4096 / shardCount * 3 / 2,
			LogSize:       4*valueSize + 1024,
		},
		CommitLog: true, // the crash-safe configuration
	})
	if err != nil {
		return nil, err
	}
	return &deployment{
		kernel: sc.Kernel(), fabric: sc.Fabric(), scheds: sc.Schedulers(), run: sc.Run,
		app:         &shardApp{r: sc.Router(), p: p},
		router:      sc.Router(),
		checkpoints: func() int64 { return 0 },
		close:       sc.Close,
	}, nil
}
