package netsim

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"sslab/internal/reaction"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.After(2*time.Second, func() { order = append(order, 2) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(1*time.Second, func() { order = append(order, 11) }) // same time: FIFO
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.Run()
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != Epoch.Add(3*time.Second) {
		t.Errorf("clock = %v", s.Now())
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := NewSim()
	fired := 0
	s.After(time.Second, func() {
		s.After(time.Second, func() { fired++ })
	})
	s.Run()
	if fired != 1 {
		t.Error("nested event did not fire")
	}
	if s.Now() != Epoch.Add(2*time.Second) {
		t.Errorf("clock = %v", s.Now())
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim()
	fired := []int{}
	s.After(time.Hour, func() { fired = append(fired, 1) })
	s.After(3*time.Hour, func() { fired = append(fired, 2) })
	s.RunUntil(Epoch.Add(2 * time.Hour))
	if len(fired) != 1 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != Epoch.Add(2*time.Hour) {
		t.Errorf("clock = %v", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	s.Run()
	if len(fired) != 2 {
		t.Error("remaining event lost")
	}
}

func TestSimPastEventClamped(t *testing.T) {
	s := NewSim()
	fired := false
	s.At(Epoch.Add(-time.Hour), func() { fired = true })
	s.Run()
	if !fired {
		t.Error("past-scheduled event dropped")
	}
	if s.Now() != Epoch {
		t.Errorf("clock moved backwards: %v", s.Now())
	}
}

// TestSimDispatchOrder: the heap carries every timer of a run, so its
// total order is checked on a randomized timeline of a few thousand
// events through all four scheduling forms. Many events share a time;
// callbacks schedule more for the current instant, for the past (which
// is clamped to now) and for later; the run is split by a RunUntil,
// after which more events arrive from outside, some in the past. The
// dispatch log must equal the schedule log stably sorted by clamped
// time, with every event firing at that time.
func TestSimDispatchOrder(t *testing.T) {
	const n = 4000
	rng := rand.New(rand.NewSource(7))
	s := NewSim()
	var (
		at    []time.Time // clamped time, by schedule order (= event id)
		got   []int       // event ids in dispatch order
		gotAt []time.Time
		add   func(time.Time)
	)
	// pick favours a coarse grid of whole seconds, so many events tie.
	pick := func() time.Time {
		switch rng.Intn(5) {
		case 0:
			return s.Now()
		case 1:
			return s.Now().Add(-time.Duration(rng.Int63n(int64(100 * time.Second))))
		case 2:
			return s.Now().Add(time.Duration(rng.Int63n(int64(time.Second))))
		default:
			return Epoch.Add(time.Duration(rng.Intn(400)) * time.Second)
		}
	}
	fire := func(id int) {
		got = append(got, id)
		gotAt = append(gotAt, s.Now())
		for k := rng.Intn(3); k > 0 && len(at) < n; k-- {
			add(pick())
		}
	}
	fireCall := func(x any) { fire(*x.(*int)) }
	add = func(when time.Time) {
		id := len(at)
		if when.Before(s.Now()) {
			at = append(at, s.Now())
		} else {
			at = append(at, when)
		}
		switch id % 4 {
		case 0:
			s.At(when, func() { fire(id) })
		case 1:
			s.After(when.Sub(s.Now()), func() { fire(id) })
		case 2:
			s.AtCall(when, fireCall, &id)
		default:
			s.AfterCall(when.Sub(s.Now()), fireCall, &id)
		}
	}

	for i := 0; i < n/4; i++ {
		add(pick())
	}
	split := Epoch.Add(150 * time.Second) // a grid point, so events sit on it
	s.RunUntil(split)
	if !s.Now().Equal(split) {
		t.Fatalf("clock after RunUntil = %v, want %v", s.Now(), split)
	}
	for _, e := range s.PendingEvents() {
		if !e.At.After(split) {
			t.Fatalf("event at %v still pending after RunUntil(%v)", e.At.Sub(Epoch), split.Sub(Epoch))
		}
	}
	for i := 0; i < n/8; i++ {
		add(pick())
	}
	s.Run()

	if len(at) < n/2 {
		t.Fatalf("only %d events scheduled; the timeline is too small to test", len(at))
	}
	want := make([]int, len(at))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool { return at[want[i]].Before(at[want[j]]) })
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, scheduled %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] || !gotAt[i].Equal(at[want[i]]) {
			t.Fatalf("dispatch %d: event %d at %v, want event %d at %v",
				i, got[i], gotAt[i].Sub(Epoch), want[i], at[want[i]].Sub(Epoch))
		}
	}
}

func TestNetworkDelivery(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s)
	server := Endpoint{IP: "10.0.0.1", Port: 8388}
	client := Endpoint{IP: "192.168.1.2", Port: 40000}

	var seen []byte
	n.AddHost(server, HostFunc(func(f *Flow) Outcome {
		seen = f.FirstPayload
		return Outcome{Reaction: reaction.Data, ResponseLen: 100}
	}))
	box := &copyBox{}
	n.AddMiddlebox(box)

	o := n.Connect(client, server, []byte("hello"), false, time.Time{})
	if o.Reaction != reaction.Data || o.ResponseLen != 100 {
		t.Errorf("outcome = %+v", o)
	}
	if string(seen) != "hello" {
		t.Error("host did not receive payload")
	}
	if len(box.flows) != 1 {
		t.Error("middlebox missed the flow")
	}
	if box.flows[0].GeneratedAt != s.Now() {
		t.Error("zero GeneratedAt not defaulted to now")
	}
}

func TestNetworkNoHost(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s)
	o := n.Connect(Endpoint{IP: "a", Port: 1}, Endpoint{IP: "b", Port: 2}, nil, false, time.Time{})
	if o.Reaction != reaction.RST {
		t.Errorf("connecting to nothing = %v, want RST", o.Reaction)
	}
}

func TestBlocking(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s)
	srv1 := Endpoint{IP: "10.0.0.1", Port: 8388}
	srv2 := Endpoint{IP: "10.0.0.1", Port: 9999}
	client := Endpoint{IP: "1.2.3.4", Port: 1000}
	handled := 0
	h := HostFunc(func(f *Flow) Outcome { handled++; return Outcome{Reaction: reaction.Data} })
	n.AddHost(srv1, h)
	n.AddHost(srv2, h)
	box := &copyBox{}
	n.AddMiddlebox(box)

	// Block by port: only srv1 affected. The SYN still reaches the host
	// (only the return path is dropped, §6), but carries no payload.
	portGen := n.BlockPort(srv1)
	if o := n.Connect(client, srv1, []byte("x"), false, time.Time{}); !o.Blocked {
		t.Error("port-blocked flow not blocked")
	}
	if o := n.Connect(client, srv2, []byte("x"), false, time.Time{}); o.Blocked {
		t.Error("sibling port wrongly blocked")
	}
	if handled != 2 {
		t.Errorf("handled = %d (blocked flows still reach the server)", handled)
	}
	if len(box.flows) != 1 {
		t.Error("middlebox saw a blocked flow's payload")
	}

	// Block by IP: both endpoints affected.
	if !n.UnblockPortIf(srv1, portGen) {
		t.Error("UnblockPortIf did not remove the port rule it installed")
	}
	ipGen := n.BlockIP("10.0.0.1")
	if o := n.Connect(client, srv2, []byte("x"), false, time.Time{}); !o.Blocked {
		t.Error("IP-blocked flow not blocked")
	}
	if !n.UnblockIPIf(srv2.IP, ipGen) {
		t.Error("UnblockIPIf did not remove the IP rule it installed")
	}
	if o := n.Connect(client, srv2, []byte("x"), false, time.Time{}); o.Blocked {
		t.Error("unblocking the IP did not clear the IP rule")
	}
	if n.Flows != 4 {
		t.Errorf("Flows = %d, want 4 (blocked attempts count)", n.Flows)
	}
}

// TestAfterCall: the closure-free scheduling form dispatches with the
// same total ordering as After and passes the argument through.
func TestAfterCall(t *testing.T) {
	s := NewSim()
	var got []int
	collect := func(x any) { got = append(got, *x.(*int)) }
	a, b, c := 2, 1, 3
	s.AfterCall(2*time.Second, collect, &a)
	s.AfterCall(1*time.Second, collect, &b)
	s.AtCall(Epoch.Add(3*time.Second), collect, &c)
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestEventDispatchAllocFree: steady-state schedule+dispatch with a
// pre-bound callback must not allocate — the hot-path contract that
// BenchmarkHotPath/EventDispatch enforces with a budget.
func TestEventDispatchAllocFree(t *testing.T) {
	s := NewSim()
	n := 0
	fn := func() { n++ }
	// Warm the heap's capacity first.
	for i := 0; i < 512; i++ {
		s.After(time.Duration(i)*time.Millisecond, fn)
	}
	s.Run()
	if allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			s.After(time.Duration(i%16)*time.Millisecond, fn)
		}
		s.Run()
	}); allocs != 0 {
		t.Errorf("event schedule+dispatch allocates %v/run, want 0", allocs)
	}
}

// TestGenerationUnblock: a stale unblock (carrying an old generation)
// must not clear a newer rule, for both IP and port rules.
func TestGenerationUnblock(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s)
	srv := Endpoint{IP: "10.0.0.9", Port: 8388}

	gen1 := n.BlockIP(srv.IP)
	gen2 := n.BlockIP(srv.IP) // re-block before the first unblock fires
	if n.UnblockIPIf(srv.IP, gen1) {
		t.Error("stale IP unblock cleared a newer rule")
	}
	if !n.IsBlocked(srv) {
		t.Error("newer IP rule lost")
	}
	if !n.UnblockIPIf(srv.IP, gen2) {
		t.Error("current IP unblock refused")
	}
	if n.IsBlocked(srv) {
		t.Error("IP rule not cleared")
	}

	pg1 := n.BlockPort(srv)
	pg2 := n.BlockPort(srv)
	if n.UnblockPortIf(srv, pg1) {
		t.Error("stale port unblock cleared a newer rule")
	}
	if !n.UnblockPortIf(srv, pg2) {
		t.Error("current port unblock refused")
	}
	if n.IsBlocked(srv) {
		t.Error("port rule not cleared")
	}
}

// TestSimMetrics: the sim-owned registry counts events and flows.
func TestSimMetrics(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s)
	srv := Endpoint{IP: "10.0.0.1", Port: 1}
	n.AddHost(srv, HostFunc(func(*Flow) Outcome { return Outcome{Reaction: reaction.Data} }))
	s.After(time.Second, func() {})
	s.Run()
	n.Connect(Endpoint{IP: "c", Port: 2}, srv, []byte("x"), false, time.Time{})
	n.BlockPort(srv)
	n.Connect(Endpoint{IP: "c", Port: 2}, srv, []byte("x"), true, time.Time{})

	snap := s.Metrics.Snapshot()
	want := map[string]int64{
		"sim.events_scheduled":  1,
		"sim.events_dispatched": 1,
		"net.flows_total":       2,
		"net.flows_blocked":     1,
		"net.flows_probe":       1,
	}
	got := map[string]int64{}
	for _, v := range snap.Counters {
		got[v.Name] = v.Value
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want %d", name, got[name], w)
		}
	}
}
