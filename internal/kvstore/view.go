package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

// LoadView reconstructs the key-value state from a raw mirror image — the
// replica-side reader of §5.1: a backup process that wakes up off the
// critical path, reads its own NVM (checkpoint + replicated log) and
// serves eventually-consistent reads. Pass a replica NVM's current or
// durable image. An image read while a checkpoint was being rewritten
// holds a torn one, and LoadView fails with ErrTorn: read again later. A
// log that is torn or malformed — a record whose CRC fails or whose
// operation does not decode, a bad pad, a head or tail outside the ring —
// is read up to the damage (wal.Walk): LoadView returns the checkpoint
// plus the records before it, with no error.
func LoadView(mirror []byte, cfg Config) (map[string][]byte, error) {
	logOff := txn.CtrlSize
	dataOff := txn.CtrlSize + cfg.LogSize
	if len(mirror) < dataOff+cfg.DataSize {
		return nil, fmt.Errorf("kvstore: mirror image too small (%d bytes)", len(mirror))
	}
	view := make(map[string][]byte)
	pairs, err := decodeCheckpoint(mirror[dataOff : dataOff+cfg.DataSize])
	if err != nil && !errors.Is(err, errNoCheckpoint) {
		return nil, fmt.Errorf("%w: %v", ErrTorn, err)
	}
	for _, p := range pairs {
		view[string(p.Key)] = p.Value
	}
	head := int(binary.LittleEndian.Uint64(mirror[txn.HeadPtrOff:]))
	tail := int(binary.LittleEndian.Uint64(mirror[txn.TailPtrOff:]))
	log := mirror[logOff : logOff+cfg.LogSize]
	fetch := func(pos, n int) ([]byte, error) { return log[pos : pos+n], nil }
	// The walk's error only says where the valid prefix ends.
	_, _ = wal.Walk(cfg.LogSize, head, tail, fetch, nil, func(_ int, rec wal.DecodedRecord, img []byte) bool {
		for _, e := range rec.Entries {
			op, key, value, err := decodeOp(rec.Data(img, e))
			if err != nil {
				return false
			}
			if op == opPut {
				view[string(key)] = bytes.Clone(value)
			} else {
				delete(view, string(key))
			}
		}
		return true
	})
	return view, nil
}
