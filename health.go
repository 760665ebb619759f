package gsim

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// The degraded-mode state machine of a durable database:
//
//	healthy ──fault──▶ degraded ──probe──▶ recovering ──checkpoint ok──▶ healthy
//	                      ▲                     │
//	                      └────checkpoint err───┘
//
// Any journaling or checkpoint I/O error flips the database to
// degraded-read-only: searches keep serving (they never touch the disk),
// mutations fail fast with ErrDegraded instead of timing out against a
// poisoned writer. The database's background loop (Database.loop) then
// retries a checkpoint with jittered exponential backoff — a successful
// checkpoint rotates every shard onto fresh log files and captures the
// full in-memory store in segments, which is exactly the repair: whatever
// the fault interrupted is re-persisted wholesale. The first checkpoint
// that succeeds (the loop's, or an operator's POST /v1/admin/checkpoint)
// restores healthy.

// ErrDegraded reports a mutation against a database in degraded
// (read-only) mode after a durability fault. Searches still serve;
// mutations fail fast until a checkpoint succeeds — the database's
// background loop retries automatically. The serving layer maps it to
// HTTP 503 with a Retry-After.
var ErrDegraded = errors.New("gsim: database is degraded (read-only) after a durability fault; retrying in the background")

// HealthState is the durability health of a Database.
type HealthState int32

const (
	// HealthHealthy: mutations journal and checkpoints land normally.
	HealthHealthy HealthState = iota
	// HealthDegraded: a durability fault made the database read-only;
	// the background loop is waiting out its backoff.
	HealthDegraded
	// HealthRecovering: a recovery checkpoint is in flight.
	HealthRecovering
)

// String names the state as /readyz and /v1/stats report it.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthRecovering:
		return "recovering"
	}
	return "unknown"
}

// HealthInfo is a point-in-time snapshot of the health machine.
type HealthInfo struct {
	// State is the current health state.
	State HealthState
	// Since is when the database entered the current healthy/degraded
	// episode (zero while healthy since open).
	Since time.Time
	// Cause describes the fault that started the current degradation
	// (empty while healthy).
	Cause string
	// Degradations counts healthy→degraded transitions this process.
	Degradations uint64
	// Probes counts recovery checkpoint attempts (successful or not).
	Probes uint64
	// Recoveries counts degraded→healthy transitions.
	Recoveries uint64
}

// health is the machine itself: an atomic state word for the mutation
// fast path, a mutex for transition bookkeeping, and the background
// loop's wake-up.
type health struct {
	state        atomic.Int32
	degradations atomic.Uint64
	probes       atomic.Uint64
	recoveries   atomic.Uint64

	mu    sync.Mutex
	cause error
	since time.Time

	// kick (one slot) tells the background loop that the database has
	// just degraded; nil for in-memory databases.
	kick chan struct{}
}

// Health reports the database's durability health. In-memory databases
// are permanently healthy: with nothing to persist there is nothing to
// degrade.
func (d *Database) Health() HealthInfo {
	h := &d.health
	h.mu.Lock()
	defer h.mu.Unlock()
	info := HealthInfo{
		State:        HealthState(h.state.Load()),
		Since:        h.since,
		Degradations: h.degradations.Load(),
		Probes:       h.probes.Load(),
		Recoveries:   h.recoveries.Load(),
	}
	if h.cause != nil {
		info.Cause = h.cause.Error()
	}
	return info
}

// writable is the mutation gate: one atomic load on the happy path.
func (d *Database) writable() error {
	if HealthState(d.health.state.Load()) != HealthHealthy {
		return ErrDegraded
	}
	return nil
}

// fault records a durability failure: healthy flips to degraded (with
// cause and timestamp) and wakes the background loop, which starts
// retrying checkpoints. Re-faulting while degraded or recovering only
// keeps the state pinned — the first cause stands until recovery.
func (d *Database) fault(err error) {
	h := &d.health
	h.mu.Lock()
	defer h.mu.Unlock()
	switch HealthState(h.state.Load()) {
	case HealthHealthy:
		h.state.Store(int32(HealthDegraded))
		h.cause = err
		h.since = time.Now()
		h.degradations.Add(1)
		select {
		case h.kick <- struct{}{}:
		default: // a wake-up is already pending
		}
	case HealthRecovering:
		// A recovery checkpoint failed, or a mutation faulted while one
		// was in flight: back to waiting out the backoff.
		h.state.Store(int32(HealthDegraded))
	}
}

// recovered flips any non-healthy state back to healthy — called on
// every checkpoint success, whoever ran it.
func (h *health) recovered() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if HealthState(h.state.Load()) != HealthHealthy {
		h.state.Store(int32(HealthHealthy))
		h.cause = nil
		h.since = time.Now()
		h.recoveries.Add(1)
	}
}
