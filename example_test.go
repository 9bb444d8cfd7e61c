package sslab_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"sslab"
)

// ExampleListenServer runs a hardened Shadowsocks server, probes it with
// a 221-byte random payload (the GFW's NR2 probe), and observes the
// §7.2-recommended reaction: a timeout, indistinguishable from a silent
// service.
func ExampleListenServer() {
	srv, err := sslab.ListenServer("127.0.0.1:0", sslab.ServerConfig{
		Method:   "chacha20-ietf-poly1305",
		Password: "example-secret",
	})
	if err != nil {
		fmt.Println("listen:", err)
		return
	}
	defer srv.Close()

	prober := &sslab.TCPProber{Addr: srv.Addr().String(), Timeout: 400 * time.Millisecond}
	reactionSeen, err := prober.Probe(make([]byte, 221), time.Time{})
	if err != nil {
		fmt.Println("probe:", err)
		return
	}
	fmt.Println("hardened server reaction to an NR2 probe:", reactionSeen)
	// Output: hardened server reaction to an NR2 probe: TIMEOUT
}

// ExampleWithImpairment degrades every simulated link until nothing
// survives: total loss with a single transmission attempt means no flow
// ever reaches the censor, so the whole campaign deterministically
// records zero triggers and zero probes. Dial the Loss down (or raise
// Retry.Attempts) and the paper's pipeline comes back to life.
func ExampleWithImpairment() {
	dead := &sslab.LinkProfile{
		Loss:  1,
		Retry: sslab.RetryPolicy{Attempts: 1},
	}
	report, err := sslab.RunShadowsocksExperiment(sslab.ShadowsocksConfig{
		Seed: 1, Days: 1, ConnsPerPairPerHour: 4,
		GFW:    sslab.GFWConfig{PoolSize: 100},
		Impair: dead,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("triggers:", report.Triggers)
	fmt.Println("probes:", report.Probes)
	fmt.Println("flows lost to the link:", report.LinkDroppedFlows > 0)
	// Output:
	// triggers: 0
	// probes: 0
	// flows lost to the link: true
}

// ExampleWithDetectors builds a censor running the full four-stage
// detector chain. The chain is order-independent: verdicts combine by
// exempt-veto then maximum confidence, so listing "tlsexempt" last
// protects TLS flows just the same.
func ExampleWithDetectors() {
	sim := sslab.NewSim(sslab.WithSeed(1))
	net := sslab.NewNetwork(sim)
	censor := sslab.NewCensor(sslab.CensorEnv{Sim: sim, Net: net},
		sslab.WithDetectors("shadowsocks", "openvpn", "fullyencrypted", "tlsexempt"))
	fmt.Println("chain:", censor.DetectorNames())
	fmt.Println("registered stages:", sslab.DetectorNames())
	// Output:
	// chain: [shadowsocks openvpn fullyencrypted tlsexempt]
	// registered stages: [fullyencrypted openvpn shadowsocks tlsexempt]
}

// ExampleRunFleet runs a population-scale fleet split into four
// space shards and demonstrates the execution-option contract:
// FleetConfig (including Shards) is science and pins the report's
// bytes, while WithWorkers is execution and only changes wall-clock
// time — a fully parallel run reproduces the sequential run exactly.
func ExampleRunFleet() {
	cfg := sslab.FleetConfig{
		Seed: 1, Users: 500, UsersPerServer: 25,
		Hours: 6, BucketMin: 30, Shards: 4,
	}
	sequential, err := sslab.RunFleet(cfg, sslab.WithWorkers(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	parallel, err := sslab.RunFleet(cfg, sslab.WithWorkers(4))
	if err != nil {
		fmt.Println(err)
		return
	}
	a, _ := json.Marshal(sequential)
	b, _ := json.Marshal(parallel)
	fmt.Println("users:", sequential.Users, "servers:", sequential.Servers)
	fmt.Println("parallel report byte-identical:", bytes.Equal(a, b))
	// Output:
	// users: 500 servers: 20
	// parallel report byte-identical: true
}

// ExampleRunReactionMatrices regenerates one Figure 10b fingerprint: the
// OutlineVPN v1.0.6 FIN/ACK band at exactly 50 bytes.
func ExampleRunReactionMatrices() {
	report, err := sslab.RunReactionMatrices(sslab.MatrixConfig{Seed: 1, Trials: 20})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, m := range report.AEAD {
		if m.Versions == "v1.0.6" {
			fmt.Printf("len 49: %v\n", m.Cells[49].Dominant())
			fmt.Printf("len 50: %v\n", m.Cells[50].Dominant())
			fmt.Printf("len 51: %v\n", m.Cells[51].Dominant())
		}
	}
	// Output:
	// len 49: TIMEOUT
	// len 50: FIN/ACK
	// len 51: RST
}
