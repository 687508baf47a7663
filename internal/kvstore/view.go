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
// holds a torn one, and LoadView fails with ErrTorn: read again later.
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
	p := head
	for p != tail {
		if p < 0 || p > cfg.LogSize {
			return view, fmt.Errorf("kvstore: log pointer out of range")
		}
		if cfg.LogSize-p < wal.PadHeaderSize {
			p = 0
			continue
		}
		if padLen, ok := wal.IsPad(log[p:]); ok {
			p += padLen
			if p >= cfg.LogSize || cfg.LogSize-p < wal.PadHeaderSize {
				p = 0
			}
			continue
		}
		rec, err := wal.Decode(log[p:], nil)
		if err != nil {
			// Torn tail: the valid prefix is the eventually-consistent view.
			return view, nil
		}
		for _, e := range rec.Entries {
			op, key, value, derr := decodeOp(rec.Data(log[p:], e))
			if derr != nil {
				return view, nil
			}
			if op == opPut {
				view[string(key)] = bytes.Clone(value)
			} else {
				delete(view, string(key))
			}
		}
		p += rec.Size
		if cfg.LogSize-p < wal.PadHeaderSize {
			p = 0
		}
	}
	return view, nil
}
