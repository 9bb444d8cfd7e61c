package gfw

import (
	"reflect"
	"testing"
	"time"

	"sslab/internal/entropy"
	"sslab/internal/netsim"
	"sslab/internal/reaction"
)

// TestTaskSnapshotRoundTrip: every censor task kind — probe, NR2
// duplicate, retry and unblock — survives EncodeTask and ScheduleTask.
// A censor captured at a second when all four kinds are pending, and
// restored into a fresh simulator, sends exactly the probes, retries
// and blocks the uninterrupted censor sends afterwards. Fleet snapshots
// refuse impaired runs, so this is the only snapshot test a retry goes
// through.
func TestTaskSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Seed: 5, Sensitivity: 1, BlockThreshold: 2}
	replaying := netsim.Endpoint{IP: "178.62.0.51", Port: 8388}
	lossy := netsim.Endpoint{IP: "178.62.0.52", Port: 8388}
	client := netsim.Endpoint{IP: "101.32.0.5", Port: 55005}
	// Genuine payloads the replaying server has served; written only
	// while traffic flows, before the capture point, so both runs can
	// share it.
	served := map[string]bool{}
	build := func() (*netsim.Sim, *netsim.Network, *GFW) {
		sim := netsim.NewSim()
		net := netsim.NewNetwork(sim)
		g := New(Env{Sim: sim, Net: net}, WithConfig(cfg))
		net.AddMiddlebox(g)
		// Serves replays of its genuine payloads and RSTs every other
		// probe: both kinds of blocking evidence, so it gets blocked
		// and leaves an unblock pending.
		net.AddHost(replaying, netsim.HostFunc(func(f *netsim.Flow) netsim.Outcome {
			if !f.Probe {
				served[string(f.FirstPayload)] = true
				return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 600}
			}
			if served[string(f.FirstPayload)] {
				return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 600}
			}
			return netsim.Outcome{Reaction: reaction.RST}
		}))
		// Times out, and drops the connection of every probe started in
		// a whole second ≡ 0 (mod 4), which the prober retries.
		net.AddHost(lossy, netsim.HostFunc(func(f *netsim.Flow) netsim.Outcome {
			if f.Probe && f.Start.Sub(netsim.Epoch)/time.Second%4 == 0 {
				return netsim.Outcome{Reaction: reaction.Timeout, Dropped: true}
			}
			return netsim.Outcome{Reaction: reaction.Timeout}
		}))
		return sim, net, g
	}

	sim, net, g := build()
	gen := entropy.NewGenerator(55)
	trafficEnd := netsim.Epoch.Add(20 * time.Hour)
	var tick func()
	tick = func() {
		net.Connect(client, replaying, gen.Random(160+gen.Intn(541)), false, time.Time{})
		net.Connect(client, lossy, gen.Random(160+gen.Intn(541)), false, time.Time{})
		if sim.Now().Before(trafficEnd) {
			sim.After(time.Second, tick)
		}
	}
	sim.After(0, tick)

	// Step whole seconds past the traffic until all four kinds wait.
	type pending struct {
		at time.Time
		st TaskState
	}
	var tasks []pending
	at := trafficEnd
	for ; ; at = at.Add(time.Second) {
		if at.Sub(trafficEnd) > 48*time.Hour {
			t.Fatal("no second within 48 h of the traffic has all four task kinds pending")
		}
		sim.RunUntil(at)
		tasks = tasks[:0]
		kinds := map[string]bool{}
		for _, ev := range sim.PendingEvents() {
			st, ok := EncodeTask(ev.Arg)
			if !ok {
				t.Fatalf("pending event with arg %T is not a censor task", ev.Arg)
			}
			tasks = append(tasks, pending{ev.At, st})
			kinds[st.Kind] = true
		}
		if kinds[kindProbe] && kinds[kindDup] && kinds[kindRetry] && kinds[kindUnblock] {
			break
		}
	}
	t.Logf("all four task kinds pending at %v, %d tasks", at.Sub(netsim.Epoch), len(tasks))

	gst, nst := g.CaptureState(), net.CaptureState()
	sim2, net2, g2 := build()
	sim2.RunUntil(at)
	net2.RestoreState(nst)
	if err := g2.RestoreState(gst); err != nil {
		t.Fatal(err)
	}
	if err := g2.ScheduleTask(at.Add(time.Hour), TaskState{Kind: "bogus"}); err == nil {
		t.Error("ScheduleTask accepted an unknown task kind")
	}
	for _, p := range tasks {
		if err := g2.ScheduleTask(p.at, p.st); err != nil {
			t.Fatal(err)
		}
	}

	logged, retries := len(g.Log.Records), g.ProbeRetries
	stop := at.Add(30 * 24 * time.Hour)
	sim.RunUntil(stop)
	sim2.RunUntil(stop)

	if g.ProbeRetries == retries {
		t.Error("no retry fired after the capture point; the test is vacuous")
	}
	if want, got := g.Log.Records[logged:], g2.Log.Records; !reflect.DeepEqual(got, want) {
		t.Errorf("restored censor logged %d probes after the capture point, uninterrupted one %d, or they differ",
			len(got), len(want))
	}
	if g2.ProbesSent != g.ProbesSent || g2.ProbeRetries != g.ProbeRetries {
		t.Errorf("ProbesSent/ProbeRetries: restored %d/%d, uninterrupted %d/%d",
			g2.ProbesSent, g2.ProbeRetries, g.ProbesSent, g.ProbeRetries)
	}
	if !reflect.DeepEqual(g2.BlockEvents, g.BlockEvents) {
		t.Errorf("BlockEvents: restored %v, uninterrupted %v", g2.BlockEvents, g.BlockEvents)
	}
	if !reflect.DeepEqual(g2.CaptureState(), g.CaptureState()) || !reflect.DeepEqual(net2.CaptureState(), net.CaptureState()) {
		t.Error("censor or network state differs 30 days after the capture point")
	}
}
