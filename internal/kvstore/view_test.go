package kvstore

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

// TestLoadViewStopsAtMalformedPad: a pad marker of zero length, or one
// running past the ring's end, behind two Puts and under the tail ends the
// replica's view at the two Puts instead of spinning.
func TestLoadViewStopsAtMalformedPad(t *testing.T) {
	cfg := smallConfig()
	k, db, g := testDB(t, cfg)
	run(t, k, func(f *sim.Fiber) {
		for _, key := range []string{"k1", "k2"} {
			if err := db.Put(f, []byte(key), []byte("v-"+key)); err != nil {
				t.Errorf("put: %v", err)
			}
		}
	})
	img := make([]byte, MirrorSizeFor(cfg))
	if err := g.ReplicaNIC(0).Memory().Read(0, img); err != nil {
		t.Fatal(err)
	}
	tail := int(binary.LittleEndian.Uint64(img[txn.TailPtrOff:]))
	for _, padLen := range []uint32{0, uint32(cfg.LogSize)} {
		bad := bytes.Clone(img)
		marker := bad[txn.CtrlSize+tail : txn.CtrlSize+tail+8]
		wal.EncodePad(marker)
		binary.LittleEndian.PutUint32(marker[4:], padLen)
		binary.LittleEndian.PutUint64(bad[txn.TailPtrOff:], uint64(tail+64))
		var (
			view map[string][]byte
			err  error
		)
		done := make(chan struct{})
		go func() {
			defer close(done)
			view, err = LoadView(bad, cfg)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("pad of %d bytes: LoadView did not return", padLen)
		}
		if err != nil || len(view) != 2 || string(view["k1"]) != "v-k1" || string(view["k2"]) != "v-k2" {
			t.Errorf("pad of %d bytes: view = %q, %v; want k1 and k2", padLen, view, err)
		}
	}
}
