// Package chain provides the replication control path the datapath
// packages deliberately leave out (§5): heartbeat-based failure detection
// ("a configurable number of consecutive missing heartbeats is considered
// a data path failure"), pausing writes, catch-up state transfer for a
// replacement replica, and re-establishing a fresh HyperLoop datapath.
//
// HyperLoop accelerates only the data path; when membership changes, the
// application's recovery protocol takes over. Manager.Repair is that
// protocol, once: every caller supplies only how its datapath is rebuilt.
package chain

import (
	"errors"
	"fmt"

	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// Errors returned by the manager.
var (
	ErrNoHealthy = errors.New("chain: no healthy source for catch-up")
	ErrBadMember = errors.New("chain: bad member index")
	// ErrSourceLost reports that the catch-up source died mid-transfer;
	// the copied image cannot be trusted and the caller must pick a new
	// source and retry.
	ErrSourceLost = errors.New("chain: catch-up source died during transfer")
	// ErrTargetLost reports that the replacement died mid-transfer; the
	// caller must provision a different replacement.
	ErrTargetLost = errors.New("chain: catch-up target died during transfer")
)

// Config parameterizes failure detection.
type Config struct {
	// HeartbeatEvery is the beat interval.
	HeartbeatEvery sim.Duration
	// MissedThreshold is how many consecutive missed beats mark a member
	// suspected (the paper's "configurable number of consecutive missing
	// heartbeats").
	MissedThreshold int
}

// DefaultConfig returns production-ish settings scaled to the simulation.
func DefaultConfig() Config {
	return Config{
		HeartbeatEvery:  5 * sim.Millisecond,
		MissedThreshold: 3,
	}
}

// member tracks one replica's heartbeat state.
type member struct {
	nic       *rdma.NIC
	missed    int
	suspected bool
}

// Manager monitors a replica set and coordinates recovery.
type Manager struct {
	k       *sim.Kernel
	cfg     Config
	members []*member

	onSuspect func(idx int)
	running   bool
	timer     *sim.Timer
	paused    bool
}

// New builds a manager over the replicas' NICs.
func New(k *sim.Kernel, nics []*rdma.NIC, cfg Config) (*Manager, error) {
	if len(nics) == 0 {
		return nil, fmt.Errorf("%w: no members", ErrBadMember)
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultConfig().HeartbeatEvery
	}
	if cfg.MissedThreshold <= 0 {
		cfg.MissedThreshold = DefaultConfig().MissedThreshold
	}
	m := &Manager{k: k, cfg: cfg}
	for _, nic := range nics {
		m.members = append(m.members, &member{nic: nic})
	}
	return m, nil
}

// start begins heartbeat monitoring.
func (m *Manager) start() {
	if m.running {
		return
	}
	m.running = true
	m.tick()
}

// Stop halts monitoring.
func (m *Manager) Stop() {
	m.running = false
	if m.timer != nil {
		m.timer.Stop()
		m.timer = nil
	}
}

func (m *Manager) tick() {
	if !m.running {
		return
	}
	for i, mem := range m.members {
		if mem.nic.Down() {
			mem.missed++
		} else {
			mem.missed = 0
			mem.suspected = false
		}
		if mem.missed >= m.cfg.MissedThreshold && !mem.suspected {
			mem.suspected = true
			if m.onSuspect != nil {
				m.onSuspect(i)
			}
		}
	}
	m.timer = m.k.After(m.cfg.HeartbeatEvery, m.tick)
}

// healthy returns the index of some healthy member, or -1.
func (m *Manager) healthy() int {
	for i, mem := range m.members {
		if !mem.suspected && !mem.nic.Down() {
			return i
		}
	}
	return -1
}

// Paused reports whether writes are paused: from the instant a Repair's
// member is suspected until its datapath is re-established (§5.1: "writes
// are paused for a short duration of catch-up phase"). The application
// checks it before every write.
func (m *Manager) Paused() bool { return m.paused }

// nics returns the members' NICs in chain order.
func (m *Manager) nics() []*rdma.NIC {
	out := make([]*rdma.NIC, len(m.members))
	for i, mem := range m.members {
		out[i] = mem.nic
	}
	return out
}

// catchUp copies the first mirrorSize bytes of a healthy member's durable
// state onto the replacement device and flushes it, charging transfer time
// at the fabric's link bandwidth. It returns the source member used.
func (m *Manager) catchUp(f *sim.Fiber, to *rdma.NIC, mirrorSize int) (int, error) {
	src := m.healthy()
	if src < 0 {
		return -1, ErrNoHealthy
	}
	img := make([]byte, mirrorSize)
	if err := m.members[src].nic.Memory().Read(0, img); err != nil {
		return src, err
	}
	// Transfer time: full image over the wire.
	sec := float64(mirrorSize) * 8 / to.Fabric().Config().BandwidthBps
	f.Sleep(sim.Duration(sec * 1e9))
	// The transfer window is exactly when a second failure can strike.
	// Re-check both ends before installing the image: a source that died
	// mid-transfer may have stopped streaming anywhere, so the snapshot
	// read above can no longer be certified complete, and a dead target
	// would silently absorb the image into memory nothing will ever serve.
	if m.members[src].nic.Down() {
		return src, fmt.Errorf("%w (source member %d)", ErrSourceLost, src)
	}
	if to.Down() {
		return src, fmt.Errorf("%w (target %s)", ErrTargetLost, to.Host())
	}
	if err := to.Memory().Write(0, img); err != nil {
		return src, err
	}
	to.Memory().FlushAll()
	return src, nil
}

// Repair is one run of the recovery protocol, filled in as it progresses.
// Everything runs on one kernel, so fibers may read it at any time.
type Repair struct {
	Failed    int      // member index first suspected; -1 until then
	Source    int      // member the spare caught up from; -1 until chosen
	Suspected sim.Time // when Failed was suspected and writes paused
	CaughtUp  sim.Time // when the spare held the source's durable image
	Resumed   sim.Time // when the datapath was re-established and writes resumed
	// Err says why the repair stopped short; writes then stay paused.
	Err error
	// Done fires with Err when the repair ends, either way.
	Done *sim.Signal
}

// Repair starts heartbeat monitoring and arms the §5 recovery protocol for
// the first member suspected. Inside the suspicion callback it pauses writes,
// so no writer sends to the dying chain again. A "repair" fiber then
// catches spare up on the first mirror bytes of a healthy member, swaps it in
// at the failed index, and calls rebuild with the members' NICs in chain
// order — the caller closes its old datapath there and builds a fresh one
// over them — and resumes writes. A failed step ends the repair with writes
// still paused. Later suspicions are ignored; a Manager runs one Repair.
func (m *Manager) Repair(spare *rdma.NIC, mirror int, rebuild func(f *sim.Fiber, members []*rdma.NIC) error) *Repair {
	r := &Repair{Failed: -1, Source: -1, Done: sim.NewSignal()}
	suspected := sim.NewSignal()
	m.onSuspect = func(idx int) {
		if r.Failed >= 0 {
			return
		}
		r.Failed, r.Suspected = idx, m.k.Now()
		m.paused = true
		suspected.Fire(nil)
	}
	m.start()
	m.k.Spawn("repair", func(f *sim.Fiber) {
		_ = f.Await(suspected) // fires with nil only
		if r.Err = m.repair(f, r, spare, mirror, rebuild); r.Err == nil {
			m.paused = false
			r.Resumed = f.Now()
		}
		r.Done.Fire(r.Err)
	})
	return r
}

// repair runs catch-up, replace and rebuild for r's failed member.
func (m *Manager) repair(f *sim.Fiber, r *Repair, spare *rdma.NIC, mirror int, rebuild func(*sim.Fiber, []*rdma.NIC) error) error {
	src, err := m.catchUp(f, spare, mirror)
	r.Source = src
	if err != nil {
		return fmt.Errorf("catch-up: %w", err)
	}
	r.CaughtUp = f.Now()
	m.members[r.Failed] = &member{nic: spare}
	if err := rebuild(f, m.nics()); err != nil {
		return fmt.Errorf("re-setup: %w", err)
	}
	return nil
}
