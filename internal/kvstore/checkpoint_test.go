package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"testing"

	"hyperloop/internal/sim"
)

// chunk is the size of the gWRITEs txn.Store.WriteFrom streams an image in.
const chunk = 64 << 10

// liveOf returns the memtable's live pairs, tombstones dropped.
func liveOf(mem *skiplist) map[string][]byte {
	live := make(map[string][]byte)
	for n := nextLive(mem.head); n != nil; n = nextLive(n) {
		live[string(n.key)] = n.value
	}
	return live
}

// layout builds the on-NVM checkpoint image of live the long way round,
// body first and header after: a 16-byte header (magic, pair count, body
// length, body CRC), then the body of (klen u16, vlen u32, key, value)
// pairs in key order.
func layout(live map[string][]byte) []byte {
	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var body []byte
	for _, k := range keys {
		body = binary.LittleEndian.AppendUint16(body, uint16(len(k)))
		body = binary.LittleEndian.AppendUint32(body, uint32(len(live[k])))
		body = append(append(body, k...), live[k]...)
	}
	img := binary.LittleEndian.AppendUint32(nil, ckptMagic)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(keys)))
	img = binary.LittleEndian.AppendUint32(img, uint32(len(body)))
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(body))
	return append(img, body...)
}

// checkDecoded fails unless pairs are live's pairs in key order, with every
// empty value empty and not nil (nil is the memtable's tombstone).
func checkDecoded(t *testing.T, pairs []Pair, live map[string][]byte) {
	t.Helper()
	if len(pairs) != len(live) {
		t.Fatalf("decoded %d pairs, want %d", len(pairs), len(live))
	}
	for i, p := range pairs {
		v, ok := live[string(p.Key)]
		switch {
		case !ok || !bytes.Equal(p.Value, v):
			t.Fatalf("pair %d: %q = %d bytes, not in the memtable", i, p.Key, len(p.Value))
		case i > 0 && bytes.Compare(pairs[i-1].Key, p.Key) >= 0:
			t.Fatalf("pair %d: %q is out of key order", i, p.Key)
		case p.Value == nil:
			t.Fatalf("pair %d: %q decoded as a tombstone", i, p.Key)
		}
	}
}

// fillTo grows mem with pairs of up to 1000 pseudo-random bytes until its
// checkpoint image is exactly size bytes.
func fillTo(t *testing.T, mem *skiplist, size int) {
	t.Helper()
	rng := sim.NewRNG(uint64(size))
	cur := len(layout(liveOf(mem)))
	const key = 6 // "p%05d"
	for i := 0; cur < size; i++ {
		r := size - cur - pairHeaderSize - key
		if r < 0 {
			t.Fatalf("image of %d bytes cannot grow to exactly %d", cur, size)
		}
		vlen := 1000
		if r <= vlen+pairHeaderSize+key {
			vlen = r // one pair more would not fit: this is the last
		}
		v := make([]byte, vlen)
		for j := range v {
			v[j] = byte(rng.Intn(256))
		}
		mem.put([]byte(fmt.Sprintf("p%05d", i)), v)
		cur += pairHeaderSize + key + vlen
	}
}

// TestCheckpointImageLayout holds the streamed checkpoint to the on-NVM
// layout: after Checkpoint, the image read back from the client's mirror and
// from the chain's tail replica must equal the layout built the long way
// and decode back to the memtable. The sizes cover an image under one
// chunk, exact multiples of a chunk and one byte either side of a chunk
// boundary, each with an empty value and tombstones in the memtable.
func TestCheckpointImageLayout(t *testing.T) {
	cfg := Config{LogSize: 16 << 10, DataSize: 256 << 10, Seed: 3}
	for _, size := range []int{0, chunk - 1, chunk, chunk + 1, 2 * chunk, 3*chunk - 1, 3 * chunk, 3*chunk + 1} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			k, db, g := testDB(t, cfg)
			db.mem.put([]byte("a"), []byte("1"))
			db.mem.put([]byte("key-b"), []byte{}) // empty, live
			db.mem.put([]byte("dead"), nil)       // tombstone
			db.mem.put([]byte("a"), nil)          // a live key deleted
			fillTo(t, db.mem, max(size, len(layout(liveOf(db.mem)))))
			live := liveOf(db.mem)
			want := layout(live)
			run(t, k, func(f *sim.Fiber) {
				if err := db.Checkpoint(f); err != nil {
					t.Errorf("checkpoint: %v", err)
				}
			})
			got, err := db.Store().ViewData(0, len(want))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("client mirror holds an image that differs from the layout (%d bytes)", len(want))
			}
			tail := make([]byte, len(want))
			if err := g.ReplicaNIC(g.GroupSize()-1).Memory().Read(db.Store().DataOff(), tail); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tail, want) {
				t.Fatal("the tail replica holds an image that differs from the layout")
			}
			pairs, err := decodeCheckpoint(got)
			if err != nil {
				t.Fatal(err)
			}
			checkDecoded(t, pairs, live)
		})
	}
}

// FuzzCheckpointStream builds a memtable from script — per three bytes a
// key, a value length (255 is a delete, 0 an empty value) and a fill byte
// — and streams its image in chunks whose sizes cycle through fills (a
// byte b asks for 1 + b² bytes): the concatenated chunks must equal the
// layout and decode back to the memtable.
func FuzzCheckpointStream(f *testing.F) {
	f.Add([]byte{1, 3, 'x', 2, 0, 0, 1, 255, 0}, []byte{0})
	f.Add([]byte{7, 200, 1, 9, 254, 2, 8, 0, 0, 7, 255, 0}, []byte{3, 1, 255})
	f.Add(bytes.Repeat([]byte{5, 250, 9, 6, 250, 8}, 40), []byte{100, 255, 0})
	f.Fuzz(func(t *testing.T, script, fills []byte) {
		mem := newSkiplist(sim.NewRNG(1))
		for i := 0; i+3 <= len(script); i += 3 {
			key := fmt.Appendf(nil, "k%d", script[i]%64)
			switch vlen := script[i+1]; vlen {
			case 255:
				mem.put(key, nil)
			default:
				mem.put(key, bytes.Repeat([]byte{script[i+2]}, int(vlen)))
			}
		}
		live := liveOf(mem)
		want := layout(live)

		var c ckptStream
		size := c.start(mem)
		if size != len(want) {
			t.Fatalf("stream sizes the image at %d bytes, the layout is %d", size, len(want))
		}
		var got []byte
		for i := 0; len(got) < size; i++ {
			n := size - len(got)
			if len(fills) > 0 {
				b := int(fills[i%len(fills)])
				n = min(n, 1+b*b)
			}
			got = append(got, c.chunk(len(got), n)...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("streamed image differs from the layout (%d bytes)", size)
		}
		pairs, err := decodeCheckpoint(got)
		if err != nil {
			t.Fatal(err)
		}
		checkDecoded(t, pairs, live)
	})
}

// TestCheckpointClientPreImageBound: over a 3-replica chain, rewriting a
// checkpoint of about 1 MiB leaves the client holding pre-image pages for
// no more than one chunk, since each chunk is staged only when it is
// posted and the post flushes it; the replicas, whose chunk is flushed by
// its gFLUSH, hold one more chunk between them. Pre-image pages are the
// rack's (nvm.Bank), so the rack is where they are counted. The image's
// current pages already exist (the first checkpoint made them), so the
// rack's device pages may grow by those two chunks of pre-image pages and
// a few more: a page either side of each chunk, one for the log's head
// pointer and the send-ring pages the second checkpoint reaches first (36
// pages in all today). With a spare list per device the rack grew by 70
// pages, 19 of them the client's; a whole staged image took 259 on the
// client alone.
func TestCheckpointClientPreImageBound(t *testing.T) {
	const page = 4 << 10
	cfg := Config{LogSize: 16 << 10, DataSize: 2 << 20, Seed: 3}
	r, g := testGroup(t, 5, 0, "chain", cfg)
	db, err := Open(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillTo(t, db.mem, 1<<20)
	pages := func() int {
		p := r.DevicePages()
		return p.Current + p.PreImage + p.Spare
	}
	var before int
	run(t, r.Kernel, func(f *sim.Fiber) {
		if err := db.Checkpoint(f); err != nil {
			t.Errorf("first checkpoint: %v", err)
			return
		}
		for n := nextLive(db.mem.head); n != nil; n = nextLive(n) {
			n.value = bytes.Repeat([]byte{0xA5}, len(n.value)) // same size, new bytes
		}
		before = pages()
		if err := db.Checkpoint(f); err != nil {
			t.Errorf("second checkpoint: %v", err)
		}
	})
	grown := (pages() - before) * page
	if limit := 2*chunk + 8*page; grown > limit {
		t.Fatalf("a 1 MiB checkpoint grew the rack's devices by %d KiB, want <= %d KiB (a chunk of pre-images on the client, one on the replicas)", grown>>10, limit>>10)
	}
}

// TestLateFlushPreImagesShared: over the CPU-driven baseline a replica
// makes a write durable only when its handler gets a CPU. Here each
// server's one core also runs a CPU hog, so a handler waits up to a 4 ms
// tick, and a replica holds most of a 1 MiB checkpoint dirty before it
// flushes. The replicas hold it in turn, not at once: a replica forwards a
// write only once it has flushed it. So over several checkpoints the
// rack's pre-image and spare pages stay within one image and a few pages
// (257 today); with a spare list per device each replica kept an image of
// its own (788 pages).
func TestLateFlushPreImagesShared(t *testing.T) {
	const page, image = 4 << 10, 1 << 20
	cfg := Config{LogSize: 16 << 10, DataSize: 2 << 20, Seed: 3}
	r, g := testGroup(t, 5, 1, "naive", cfg)
	for _, s := range r.Scheds {
		s.AddHogs(1)
	}
	db, err := Open(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillTo(t, db.mem, image)
	err = r.Run(sim.Second, "checkpoints", func(f *sim.Fiber) error {
		for i := 0; i < 4; i++ {
			for n := nextLive(db.mem.head); n != nil; n = nextLive(n) {
				n.value = bytes.Repeat([]byte{byte(i + 1)}, len(n.value)) // same size, new bytes
			}
			if err := db.Checkpoint(f); err != nil {
				return fmt.Errorf("checkpoint %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p := r.DevicePages()
	if held := (p.PreImage + p.Spare) * page; held < image || held > image+8*page {
		t.Fatalf("the rack holds %d KiB of pre-image and spare pages, want one image, %d KiB, and at most 8 pages more", held>>10, image>>10)
	}
}

// TestEmptyValueSurvivesRecover: a Put of an empty value — given as []byte{}
// or as nil — is acknowledged as a Put, so Get finds it empty and it stays
// found after a client crash and Recover, whether it comes back from the
// log or from a checkpoint.
func TestEmptyValueSurvivesRecover(t *testing.T) {
	for _, every := range []int{0, 2} {
		t.Run(fmt.Sprintf("CheckpointEvery=%d", every), func(t *testing.T) {
			cfg := smallConfig()
			cfg.CheckpointEvery = every
			k, db, g := testDB(t, cfg)
			keys := []string{"empty", "nil", "later"}
			check := func(when string) {
				t.Helper()
				for _, key := range keys {
					if v, ok := db.Get([]byte(key)); !ok || len(v) != 0 {
						t.Fatalf("%s: Get(%s) = %q, %v; want an empty value", when, key, v, ok)
					}
				}
				if db.Len() != len(keys) {
					t.Fatalf("%s: Len = %d, want %d", when, db.Len(), len(keys))
				}
			}
			run(t, k, func(f *sim.Fiber) {
				for i, v := range [][]byte{{}, nil, {}} {
					if err := db.Put(f, []byte(keys[i]), v); err != nil {
						t.Errorf("put %s: %v", keys[i], err)
					}
				}
			})
			check("before the crash")
			if st := db.Stats(); st.Puts != 3 || st.Deletes != 0 {
				t.Fatalf("stats = %+v, want 3 Puts and no Delete", st)
			}
			g.ClientNIC().Memory().Crash()
			run(t, k, func(f *sim.Fiber) {
				if err := db.Recover(f); err != nil {
					t.Errorf("recover: %v", err)
				}
			})
			check("after Recover")
		})
	}
}
