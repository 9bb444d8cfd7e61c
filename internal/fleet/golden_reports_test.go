package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"sslab/internal/gfw"
	"sslab/internal/region"
)

// armsRaceMix is experiment.ArmsRaceMix, inlined: experiment imports
// fleet.
var armsRaceMix = []ImplShare{
	{Impl: "libev-new", Weight: 0.20},
	{Impl: "sspython", Weight: 0.10},
	{Impl: "openvpn", Weight: 0.10},
	{Impl: "openvpn-auth", Weight: 0.10},
	{Impl: "obfs2", Weight: 0.10},
	{Impl: "obfs4", Weight: 0.10},
	{Impl: "web", Weight: 0.30},
}

// crackdownTopology is the spatiotemporal experiment's four-region
// sensitivity gradient, each region stepping to sensitivity 1 for the
// middle third of a run of the given length.
func crackdownTopology(hours int) *region.Topology {
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

// TestGoldenFleetReports pins the report bytes of small ideal-link
// versions of the three fleet shapes the benchmark runs — the default
// mix, a four-region two-shard sspython/web fleet under a sensitivity
// schedule, and the arms-race mix behind a three-stage chain — at three
// seeds. Each hash is the SHA-256 of the report's JSON, taken before
// the diurnal curve's thinning moved from a wake-up's firing to its
// scheduling; any change to when a wake-up, flow or probe happens, or
// to how many there are, moves it.
func TestGoldenFleetReports(t *testing.T) {
	shapes := []struct {
		name string
		cfg  func(seed int64) Config
		want map[int64]string
	}{
		{
			name: "default",
			cfg:  func(seed int64) Config { return Config{Seed: seed, Users: 2000, Hours: 6} },
			want: map[int64]string{
				1:  "0f067bf2022ae12b1389817548aa7b15fb1d613fff7b32763e603de9c4de7f69",
				7:  "982dfac388c060ad2e32740f42cbf94ac99199021f94cdb3b15fb35c6379fee6",
				23: "b0a492b101653a7ba54c97a179360dfbf1ffa58325b32de4b28d5cf0b50ba7f5",
			},
		},
		{
			name: "regional",
			cfg: func(seed int64) Config {
				return Config{
					Seed: seed, Users: 800, Hours: 12, Shards: 2,
					Mix:     []ImplShare{{Impl: "sspython", Weight: 0.7}, {Impl: "web", Weight: 0.3}},
					Regions: crackdownTopology(12),
				}
			},
			want: map[int64]string{
				1:  "1c13bbc33356f12fac8bc9c81cf73b6fd27664be58b1e111b2596dc428d29844",
				7:  "696e774fca1081621b0e963b43dc0421bdbca32fe7a9023990acf0dcd6afeab7",
				23: "1075783ee704bef2a37905dfcd53fc3a50cf35487ca7da0a8a03c07ec3051ba6",
			},
		},
		{
			name: "armsrace",
			cfg: func(seed int64) Config {
				return Config{
					Seed: seed, Users: 400, UsersPerServer: 5, Hours: 6,
					Mix: armsRaceMix,
					GFW: gfw.Config{Detectors: []string{"shadowsocks", "openvpn", "fullyencrypted"}},
				}
			},
			want: map[int64]string{
				1:  "2b1f1315c754e499885863e89593afb5fb11528278ca4657e70e0b8eeb1d53f3",
				7:  "e846a274d4e0eb71bbf929ab469dc423adc950dc17c0072418560572512dc56c",
				23: "996577fa478c36b9f2585edc6bed56b694f4eeed3f0cf7d31062caaf5cdc5cfb",
			},
		},
	}
	for _, s := range shapes {
		for _, seed := range []int64{1, 7, 23} {
			sum := sha256.Sum256(reportJSON(t, mustRun(t, s.cfg(seed))))
			if got := hex.EncodeToString(sum[:]); got != s.want[seed] {
				t.Errorf("%s fleet at seed %d: report SHA-256 %s, want %s", s.name, seed, got, s.want[seed])
			}
		}
	}
}
