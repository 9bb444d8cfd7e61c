// Package replay implements the replay-defense mechanisms discussed in
// §5.3 and §7.2 of the paper:
//
//   - NonceFilter: the Shadowsocks-libev approach — remember the IV/salt of
//     every connection in a Bloom filter. Effective against immediate
//     replays but asymmetric against a patient censor: the paper observed
//     replays delayed up to 570 hours, while a bounded-memory filter (or a
//     server restart) eventually forgets nonces.
//   - TimedFilter: the VMess-style fix the paper recommends — authenticate
//     a client timestamp and only accept connections whose timestamp is
//     within an expiry window, remembering nonces only within that window.
//
// Both implement the Filter interface so servers can be configured with
// either (or none, like OutlineVPN v1.0.6–v1.0.8).
package replay

import (
	"sync"
	"time"

	"sslab/internal/bloom"
)

// Filter decides whether a connection's nonce (IV or salt) is a replay.
type Filter interface {
	// Replay reports whether the nonce has been seen before (or is
	// otherwise unacceptable, e.g. expired), and records it if fresh.
	// ts is the client timestamp the connection carries (when its
	// payload was generated) and now is the server's current time; only
	// TimedFilter reads ts.
	Replay(nonce []byte, ts, now time.Time) bool
}

// None is a Filter that never detects replays — the behaviour of
// implementations without a replay defense (OutlineVPN v1.0.6–v1.0.8).
type None struct{}

// Replay implements Filter; it always reports fresh.
func (None) Replay([]byte, time.Time, time.Time) bool { return false }

// NonceFilter remembers nonces in a ping-pong Bloom filter, like
// Shadowsocks-libev's ppbloom.
type NonceFilter struct {
	mu sync.Mutex
	pp *bloom.PingPong
}

// NewNonceFilter creates a nonce filter holding about capacity nonces per
// generation.
func NewNonceFilter(capacity int) *NonceFilter {
	return &NonceFilter{pp: bloom.NewPingPong(capacity, 1e-6)}
}

// Replay implements Filter.
func (f *NonceFilter) Replay(nonce []byte, _, _ time.Time) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pp.TestAndAdd(nonce)
}

// Forget simulates a server restart: all remembered nonces are lost, and
// the filter starts again at its own capacity, as libev re-initializes
// ppbloom with the same constant. The paper points out a purely
// nonce-based filter is ineffective against replays that span a restart.
func (f *NonceFilter) Forget() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pp.Reset()
}

// TimedFilter accepts a connection only if its embedded timestamp is within
// Window of the server clock, and its nonce has not been seen within the
// window. Nonces older than the window are pruned, so memory is bounded by
// the connection rate times the window — and a replay delayed past the
// window is rejected even across restarts, inverting the asymmetry.
type TimedFilter struct {
	Window time.Duration

	mu     sync.Mutex
	seen   map[string]time.Time
	lastGC time.Time
}

// NewTimedFilter creates a timestamp+nonce filter with the given window.
func NewTimedFilter(window time.Duration) *TimedFilter {
	return &TimedFilter{Window: window, seen: make(map[string]time.Time)}
}

// Replay implements Filter: a connection whose timestamp ts lies outside
// Window of now is rejected, and so is a nonce already seen within the
// window.
func (f *TimedFilter) Replay(nonce []byte, ts, now time.Time) bool {
	if ts.Before(now.Add(-f.Window)) || ts.After(now.Add(f.Window)) {
		return true // expired or from the future: treat as replay
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gc(now)
	k := string(nonce)
	if _, ok := f.seen[k]; ok {
		return true
	}
	f.seen[k] = now
	return false
}

// gc drops nonces outside the window. Called with mu held.
func (f *TimedFilter) gc(now time.Time) {
	if now.Sub(f.lastGC) < f.Window/4 {
		return
	}
	f.lastGC = now
	cutoff := now.Add(-2 * f.Window)
	for k, t := range f.seen {
		if t.Before(cutoff) {
			delete(f.seen, k)
		}
	}
}

// Size returns the number of remembered nonces (for tests and ablations).
func (f *TimedFilter) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.seen)
}
