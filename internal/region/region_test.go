package region

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"sslab/internal/gfw"
)

func valid() *Topology {
	return &Topology{Regions: []Region{
		{Name: "coastal", Weight: 2, Schedule: Schedule{
			{AtHours: 1, Kind: KindSensitivity, Value: 0.9},
			{AtHours: 24, Kind: KindBlockTTL, Value: 12, JitterHours: 2},
		}},
		{Name: "inland", Weight: 1},
	}}
}

func TestTopologyValidate(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	if err := Single().Validate(); err != nil {
		t.Fatalf("Single() rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Topology)
		want string
	}{
		{"empty", func(tp *Topology) { tp.Regions = nil }, "at least one region"},
		{"unnamed", func(tp *Topology) { tp.Regions[0].Name = "" }, "name"},
		{"duplicate", func(tp *Topology) { tp.Regions[1].Name = "coastal" }, "duplicate"},
		{"zero weight", func(tp *Topology) { tp.Regions[0].Weight = 0 }, "weight"},
		{"negative weight", func(tp *Topology) { tp.Regions[1].Weight = -1 }, "weight"},
		{"nan weight", func(tp *Topology) { tp.Regions[0].Weight = math.NaN() }, "weight"},
		{"weights whose sum overflows", func(tp *Topology) {
			tp.Regions[0].Weight, tp.Regions[1].Weight = 1e308, 1e308
		}, "finite sum"},
		{"bad gfw", func(tp *Topology) { tp.Regions[0].GFW = &gfw.Config{Sensitivity: 2} }, "Sensitivity"},
		{"bad schedule", func(tp *Topology) {
			tp.Regions[0].Schedule = Schedule{{AtHours: -1, Kind: KindPause}}
		}, "AtHours"},
	}
	for _, tc := range cases {
		tp := valid()
		tc.mut(tp)
		err := tp.Validate()
		if err == nil {
			t.Fatalf("%s: invalid topology accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestScheduleValidate: besides order, kinds and value domains, an
// event time, and a block-ttl event's TTL plus jitter, must fit the
// 2,562,047 h a time.Duration holds; past it the event would fire at a
// wrapped time or lift each block the moment it is made.
func TestScheduleValidate(t *testing.T) {
	good := Schedule{
		{AtHours: 0, Kind: KindPause},
		{AtHours: 0, Kind: KindResume}, // ties are legal, applied in order
		{AtHours: 5.5, Kind: KindSensitivity, Value: 1},
		{AtHours: 5.5, Kind: KindBlockTTL, Value: 0, JitterHours: 0},
		{AtHours: 6, Kind: KindBlockTTL, Value: 2_562_000, JitterHours: 47},
		{AtHours: 2_562_047, Kind: KindPause},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	var empty Schedule
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty schedule rejected: %v", err)
	}

	bad := []Schedule{
		{{AtHours: -1, Kind: KindPause}},
		{{AtHours: math.Inf(1), Kind: KindPause}},
		{{AtHours: 2, Kind: KindPause}, {AtHours: 1, Kind: KindResume}}, // out of order
		{{AtHours: 1, Kind: "explode"}},
		{{AtHours: 1, Kind: KindSensitivity, Value: 1.5}},
		{{AtHours: 1, Kind: KindSensitivity, Value: -0.5}},
		{{AtHours: 1, Kind: KindBlockTTL, Value: -3}},
		{{AtHours: 1, Kind: KindBlockTTL, Value: 3, JitterHours: -1}},
		{{AtHours: 2_562_048, Kind: KindPause}},
		{{AtHours: 3e6, Kind: KindResume}},
		{{AtHours: 1, Kind: KindBlockTTL, Value: 3e6}},
		{{AtHours: 1, Kind: KindBlockTTL, Value: math.Inf(1)}},
		{{AtHours: 1, Kind: KindBlockTTL, Value: 2_562_000, JitterHours: 48}},
		{{AtHours: 1, Kind: KindBlockTTL, Value: 3, JitterHours: math.Inf(1)}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad schedule %d accepted: %+v", i, s)
		}
	}
}

// TestTopologyJSONRoundTrip: schedules and topologies are declarative
// config — they must survive a JSON round trip unchanged, so campaign
// grids and sweep files can carry them.
func TestTopologyJSONRoundTrip(t *testing.T) {
	tp := valid()
	tp.Regions[1].GFW = &gfw.Config{Sensitivity: 0.4, PoolSize: 7}
	b, err := json.Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	var back Topology
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tp, &back) {
		t.Fatalf("topology changed in JSON round trip:\n%+v\nvs\n%+v", tp, &back)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("re-marshal not byte-identical:\n%s\nvs\n%s", b, b2)
	}
	// Regions without overrides serialize compactly: no GFW/Schedule keys.
	lean, err := json.Marshal(&Topology{Regions: []Region{{Name: "all", Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"GFW", "Schedule"} {
		if strings.Contains(string(lean), key) {
			t.Fatalf("lean region serialized a %s key: %s", key, lean)
		}
	}
}

func TestTopologyHelpers(t *testing.T) {
	tp := valid()
	if got := tp.Names(); !reflect.DeepEqual(got, []string{"coastal", "inland"}) {
		t.Fatalf("Names() = %v", got)
	}
	if got := tp.TotalWeight(); got != 3 {
		t.Fatalf("TotalWeight() = %v, want 3", got)
	}
}
