package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"sslab/internal/experiment"
	"sslab/internal/fleet"
	"sslab/internal/gfw"
	"sslab/internal/metrics"
	"sslab/internal/netsim"
	"sslab/internal/region"
)

// fleetShape is a fleet workload's configuration: the science Config plus
// how it executes (workers) and how often it is checkpointed.
type fleetShape struct {
	cfg     fleet.Config
	workers int
	cycles  int // Snapshot + Restore cycles, evenly spaced over the run
}

// armsRaceChain is the 3-stage detector chain of the arms-race workload.
var armsRaceChain = []string{"shadowsocks", "openvpn", "fullyencrypted"}

// lossyLink is the arms-race workload's link profile: a long, jittery,
// slightly lossy path on every link.
var lossyLink = netsim.LinkProfile{LatencyBase: 80 * time.Millisecond, Jitter: 40 * time.Millisecond, Loss: 0.01}

// shapeOf returns the fleet configuration of a fleet workload. The sizes
// are chosen so one repetition takes 1–3 s on a 2-CPU host: a 20 s run
// then holds enough repetitions for a steady median.
func shapeOf(name string, seed int64, tiny bool) fleetShape {
	pick := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	switch name {
	case "fleet-ss":
		return fleetShape{
			cfg:     fleet.Config{Seed: seed, Users: pick(20000, 1000), Hours: pick(6, 2), Shards: 1},
			workers: 1,
		}
	case "fleet-armsrace-lossy":
		link := lossyLink
		return fleetShape{
			cfg: fleet.Config{
				// Five users per server: enough servers that the drawn
				// mix, and with it the probe load, varies little by seed.
				Seed: seed, Users: pick(3000, 400), UsersPerServer: 5, Hours: pick(16, 6),
				Mix:    experiment.ArmsRaceMix,
				GFW:    gfw.Config{Detectors: armsRaceChain},
				Impair: &link,
			},
			workers: 1,
		}
	case "fleet-regional-ckpt":
		hours := pick(24, 12)
		return fleetShape{
			cfg: fleet.Config{
				Seed: seed, Users: pick(6000, 800), Hours: hours, Shards: 2,
				Mix:     []fleet.ImplShare{{Impl: "sspython", Weight: 0.7}, {Impl: "web", Weight: 0.3}},
				Regions: crackdownGradient(hours),
			},
			// One worker: a second one on a 2-CPU host measures the
			// neighbours' load and the 8 units' balance, not the simulator.
			workers: 1,
			cycles:  5,
		}
	}
	panic("no fleet shape for workload " + name)
}

// crackdownGradient is the spatiotemporal experiment's 4-region
// sensitivity gradient (0.05/0.35/0.65/0.95) under its "crackdown" shape:
// every region steps to sensitivity 1 for the middle third of the run.
func crackdownGradient(hours int) *region.Topology {
	h := float64(hours)
	topo := &region.Topology{}
	for r, sens := range []float64{0.05, 0.35, 0.65, 0.95} {
		g := gfw.Config{Sensitivity: sens}
		topo.Regions = append(topo.Regions, region.Region{
			Name:   fmt.Sprintf("r%d-s%.2f", r, sens),
			Weight: 1,
			GFW:    &g,
			Schedule: region.Schedule{
				{AtHours: h / 3, Kind: region.KindSensitivity, Value: 1},
				{AtHours: 2 * h / 3, Kind: region.KindSensitivity, Value: sens},
			},
		})
	}
	return topo
}

// runFleetRep is one fleet repetition: construct the engine (the set-up
// sample: a cold construction in a fresh process, as a user pays it), run
// it to the end (snapshotting and restoring it cycles times on the way),
// reduce the Report, and check the cross-layer identities.
func runFleetRep(j job) (*repResult, error) {
	sh := shapeOf(j.Workload, j.Seed, j.Tiny)
	reg := metrics.New()
	opts := []fleet.Option{fleet.WithWorkers(sh.workers), fleet.WithMetrics(reg)}
	res := &repResult{Info: map[string]float64{}}

	t0 := time.Now()
	e, err := fleet.NewEngine(sh.cfg, opts...)
	if err != nil {
		return nil, err
	}
	res.SetupS = []float64{since(t0)}

	prof := &profiler{prefix: j.Profile}
	span := e.End().Sub(e.Now()) / time.Duration(sh.cycles+1)
	var ckptS, restoreS float64
	var snapBytes int
	for seg := 0; seg <= sh.cycles; seg++ {
		t := e.Now().Add(span)
		if seg == sh.cycles {
			t = e.End()
		}
		if err := prof.start(); err != nil {
			return nil, err
		}
		cpu0, t0 := cpuTime(), time.Now()
		err := e.RunTo(t)
		res.RunS += since(t0)
		res.CPUS += cpuTime() - cpu0
		if perr := prof.stop(); perr != nil {
			return nil, perr
		}
		if err != nil {
			return nil, err
		}
		if seg == sh.cycles {
			break
		}

		t0 = time.Now()
		data, err := e.Snapshot()
		ckptS += since(t0)
		if err != nil {
			return nil, err
		}
		snapBytes += len(data)
		// Counters restart at zero in a restored engine: retire this
		// segment's engine through Report (outside the timed region) so
		// its counters fold into reg before the engine is dropped.
		if _, err := e.Report(); err != nil {
			return nil, err
		}
		e = nil
		runtime.GC()
		t0 = time.Now()
		e, err = fleet.Restore(data, opts...)
		restoreS += since(t0)
		if err != nil {
			return nil, err
		}
	}
	t0 = time.Now()
	rep, err := e.Report()
	reportS := since(t0)
	if err != nil {
		return nil, err
	}

	res.WindowS = res.RunS
	res.WallS = res.RunS + ckptS + restoreS + reportS
	res.Ops = rep.Flows + int64(rep.ProbesSent)
	res.Attempted = res.Ops
	res.PeakRSSMB = peakRSSMB()
	res.Profiles = prof.files
	res.Counters = counters(reg)
	checkFleet(res, rep)
	if len(res.Errors) > 0 {
		res.Failed = res.Attempted
	}

	js, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	sum := sha256.Sum256(js)
	res.ReportSHA = hex.EncodeToString(sum[:])

	ss, seen := userShares(rep)
	res.Info = map[string]float64{
		"checkpoint_s":    ckptS,
		"restore_s":       restoreS,
		"snapshot_mb":     float64(snapBytes) / 1e6,
		"report_s":        reportS,
		"users":           float64(rep.Users),
		"users_per_srv":   float64(rep.Config.UsersPerServer),
		"replacements":    float64(rep.Replacements),
		"blocks":          float64(rep.Blocks),
		"ss_user_share":   ss,
		"seen_user_share": seen,
	}
	return res, nil
}

// counters flattens the registry's counters into a map.
func counters(reg *metrics.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, v := range reg.Snapshot().Counters {
		out[v.Name] = v.Value
	}
	return out
}

// checkFleet records every violated cross-layer identity. Each holds
// exactly for any fleet run: the network saw exactly the client flows plus
// the censor's probes, the Report's totals equal the (segment-summed)
// counters, and per-region rows partition the population.
func checkFleet(res *repResult, rep *fleet.Report) {
	c := res.Counters
	if c["net.flows_total"] != c["fleet.flows"]+c["gfw.probes_sent"] {
		res.errorf("net.flows_total %d != fleet.flows %d + gfw.probes_sent %d",
			c["net.flows_total"], c["fleet.flows"], c["gfw.probes_sent"])
	}
	if rep.Flows != c["fleet.flows"] {
		res.errorf("Report.Flows %d != fleet.flows %d", rep.Flows, c["fleet.flows"])
	}
	if rep.Wakeups != c["fleet.wakeups"] {
		res.errorf("Report.Wakeups %d != fleet.wakeups %d", rep.Wakeups, c["fleet.wakeups"])
	}
	if int64(rep.ProbesSent) != c["gfw.probes_sent"] {
		res.errorf("Report.ProbesSent %d != gfw.probes_sent %d", rep.ProbesSent, c["gfw.probes_sent"])
	}
	if rep.EverBlockedUsers > int64(rep.Users) {
		res.errorf("EverBlockedUsers %d > Users %d", rep.EverBlockedUsers, rep.Users)
	}
	if len(rep.PerRegion) == 0 {
		return
	}
	var sum fleet.RegionStats
	for _, r := range rep.PerRegion {
		sum.Users += r.Users
		sum.Servers += r.Servers
		sum.Wakeups += r.Wakeups
		sum.Flows += r.Flows
		sum.ProbesSent += r.ProbesSent
		sum.Blocks += r.Blocks
		sum.EverBlockedUsers += r.EverBlockedUsers
		sum.BlockedAtEnd += r.BlockedAtEnd
		sum.Replacements += r.Replacements
	}
	want := fleet.RegionStats{
		Users: rep.Users, Servers: rep.Servers, Wakeups: rep.Wakeups, Flows: rep.Flows,
		ProbesSent: rep.ProbesSent, Blocks: rep.Blocks, EverBlockedUsers: rep.EverBlockedUsers,
		BlockedAtEnd: rep.BlockedAtEnd, Replacements: rep.Replacements,
	}
	if sum != want {
		res.errorf("per-region rows %+v do not sum to the totals %+v", sum, want)
	}
}

// userShares returns the fraction of users on Shadowsocks servers and on
// servers whose host keeps a Bloom filter of payloads.
func userShares(rep *fleet.Report) (ss, seen float64) {
	if rep.Users == 0 {
		return 0, 0
	}
	var nss, nseen int64
	for _, im := range rep.PerImpl {
		if impls[im.Name].ss() {
			nss += im.Users
		}
		if impls[im.Name].seen() {
			nseen += im.Users
		}
	}
	return float64(nss) / float64(rep.Users), float64(nseen) / float64(rep.Users)
}
