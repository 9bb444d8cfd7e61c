package replay

import (
	"fmt"
	"testing"
	"time"
)

var t0 = time.Date(2019, 9, 29, 0, 0, 0, 0, time.UTC) // start of the paper's experiments

func TestNoneNeverDetects(t *testing.T) {
	var f None
	if f.Replay([]byte("iv"), t0, t0) || f.Replay([]byte("iv"), t0, t0) {
		t.Error("None reported a replay")
	}
}

func TestNonceFilterDetectsImmediateReplay(t *testing.T) {
	f := NewNonceFilter(1000)
	if f.Replay([]byte("salt-1"), t0, t0) {
		t.Error("fresh nonce flagged")
	}
	if !f.Replay([]byte("salt-1"), t0.Add(time.Second), t0.Add(time.Second)) {
		t.Error("identical replay not flagged")
	}
}

// TestNonceFilterForgetsAcrossRestart demonstrates the weakness §7.2
// describes: a replay spanning a restart defeats a nonce-only filter.
func TestNonceFilterForgetsAcrossRestart(t *testing.T) {
	f := NewNonceFilter(1000)
	f.Replay([]byte("recorded-by-gfw"), t0, t0)
	f.Forget() // server restart
	if f.Replay([]byte("recorded-by-gfw"), t0.Add(570*time.Hour), t0.Add(570*time.Hour)) {
		t.Error("nonce filter remembered across restart; expected it to forget")
	}
}

// TestNonceFilterRestartKeepsCapacity: a restart empties both
// generations and keeps their capacity, as libev re-initializes ppbloom
// with the same constant, and allocates nothing. So a nonce seen just
// after restarting a 65,536-nonce filter that held 10 survives 2,100
// more connections; a pair rebuilt for its live count plus 1,024 nonces
// would have rotated it out.
func TestNonceFilterRestartKeepsCapacity(t *testing.T) {
	f := NewNonceFilter(1 << 16)
	for i := 0; i < 10; i++ {
		f.Replay([]byte(fmt.Sprintf("before-%d", i)), t0, t0)
	}
	if a := testing.AllocsPerRun(10, f.Forget); a != 0 {
		t.Errorf("Forget: %v allocs per call", a)
	}
	st, err := CaptureState(f)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range st.PingPong.Gen {
		if g.Cap != 1<<16 || g.Entries != 0 || len(g.Words) != 0 {
			t.Errorf("generation %d after restart: capacity %d, %d entries, %d words", i, g.Cap, g.Entries, len(g.Words))
		}
	}
	f.Replay([]byte("after-restart"), t0, t0)
	for i := 0; i < 2100; i++ {
		f.Replay([]byte(fmt.Sprintf("later-%d", i)), t0, t0)
	}
	if !f.Replay([]byte("after-restart"), t0, t0) {
		t.Error("a nonce seen after the restart was forgotten 2,100 connections later")
	}
}

func TestTimedFilterRejectsReplayWithinWindow(t *testing.T) {
	f := NewTimedFilter(2 * time.Minute)
	if f.Replay([]byte("n1"), t0, t0) {
		t.Error("fresh connection rejected")
	}
	if !f.Replay([]byte("n1"), t0.Add(30*time.Second), t0.Add(30*time.Second)) {
		t.Error("in-window replay accepted")
	}
}

// TestTimedFilterRejectsDelayedReplay is the key inversion: a replay of an
// old payload carries an old timestamp and is rejected no matter what the
// nonce table remembers — even the 569.55-hour maximum delay of Figure 7.
func TestTimedFilterRejectsDelayedReplay(t *testing.T) {
	f := NewTimedFilter(2 * time.Minute)
	f.Replay([]byte("n1"), t0, t0)
	for _, delay := range []time.Duration{
		3 * time.Minute, time.Hour, 15 * time.Hour, 570 * time.Hour,
	} {
		now := t0.Add(delay)
		if !f.Replay([]byte("n1"), t0, now) {
			t.Errorf("replay with %v delay accepted", delay)
		}
	}
}

// TestTimedFilterSurvivesRestart verifies a fresh TimedFilter (empty nonce
// table, as after a restart) still rejects old-timestamp replays.
func TestTimedFilterSurvivesRestart(t *testing.T) {
	f := NewTimedFilter(2 * time.Minute)
	now := t0.Add(24 * time.Hour)
	if !f.Replay([]byte("recorded-long-ago"), t0, now) {
		t.Error("restarted timed filter accepted a day-old replay")
	}
}

func TestTimedFilterRejectsFutureTimestamps(t *testing.T) {
	f := NewTimedFilter(2 * time.Minute)
	if !f.Replay([]byte("n"), t0.Add(10*time.Minute), t0) {
		t.Error("timestamp from the future accepted")
	}
}

// TestTimedFilterBoundedMemory verifies pruning keeps the table bounded.
func TestTimedFilterBoundedMemory(t *testing.T) {
	f := NewTimedFilter(time.Minute)
	now := t0
	for i := 0; i < 10000; i++ {
		now = now.Add(100 * time.Millisecond)
		f.Replay([]byte(fmt.Sprintf("nonce-%d", i)), now, now)
	}
	// Window is 1 min = 600 connections at 10/s; gc keeps <= 2 windows
	// plus slack between collections.
	if f.Size() > 2500 {
		t.Errorf("timed filter retained %d nonces; pruning ineffective", f.Size())
	}
}

func TestTimedFilterDistinctNoncesAccepted(t *testing.T) {
	f := NewTimedFilter(time.Minute)
	for i := 0; i < 100; i++ {
		if f.Replay([]byte(fmt.Sprintf("nonce-%d", i)), t0.Add(time.Duration(i)*time.Second), t0.Add(time.Duration(i)*time.Second)) {
			t.Fatalf("distinct nonce %d rejected", i)
		}
	}
}
