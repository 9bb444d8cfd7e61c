package capture

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"sslab/internal/probe"
)

func TestJSONRoundTrip(t *testing.T) {
	l := NewLog(t0)
	l.Add(Record{
		Time: t0.Add(3 * time.Second), SrcIP: "175.42.1.21", SrcPort: 41234,
		DstIP: "178.62.1.1", DstPort: 8388, ASN: 4837, TTL: 48, IPID: 0xBEEF,
		TSval: 123456789, Payload: []byte{0, 1, 2, 0xFF}, Type: probe.R1,
		ReplayOf: t0,
	})
	l.Add(Record{
		Time: t0.Add(time.Hour), SrcIP: "223.166.74.207", SrcPort: 2000,
		Payload: make([]byte, 221), Type: probe.NR2,
	})

	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("records = %d, want %d", got.Len(), l.Len())
	}
	a, b := &l.Records[0], &got.Records[0]
	if !a.Time.Equal(b.Time) || a.SrcIP != b.SrcIP || a.SrcPort != b.SrcPort ||
		a.ASN != b.ASN || a.TTL != b.TTL || a.IPID != b.IPID || a.TSval != b.TSval {
		t.Errorf("fields differ: %+v vs %+v", a, b)
	}
	if !bytes.Equal(a.Payload, b.Payload) {
		t.Error("payload corrupted")
	}
	if b.Type != probe.R1 || !b.ReplayOf.Equal(t0) {
		t.Errorf("type/replay lost: %v %v", b.Type, b.ReplayOf)
	}
	if got.Records[1].Type != probe.NR2 || !got.Records[1].ReplayOf.IsZero() {
		t.Error("NR2 record mangled")
	}

	// Analysis still works on the round-tripped log.
	if got.MultiUseFraction() != l.MultiUseFraction() {
		t.Error("analysis differs after round trip")
	}
}

func TestReadJSONErrors(t *testing.T) {
	const hdr = `{"start":"2019-09-29T00:00:00Z","records":%d}` + "\n"
	const rec = `{"src_ip":"175.42.1.21","type":"R1"}` + "\n"
	for _, c := range []struct {
		name, in string
		want     string // substring of the error
	}{
		{"empty input", "", "header"},
		{"garbage record", fmt.Sprintf(hdr, 1) + "garbage\n", "record 0"},
		{"truncated", fmt.Sprintf(hdr, 3) + rec + rec, "read 2 records, header declares 3"},
		{"header only", fmt.Sprintf(hdr, 1), "read 0 records, header declares 1"},
		{"record past the count", fmt.Sprintf(hdr, 1) + rec + rec, "record 2 follows a header that declares 1"},
		{"negative count", fmt.Sprintf(hdr, -5), "read 0 records, header declares -5"},
		{"negative count with records", fmt.Sprintf(hdr, -1) + rec, "read 1 records, header declares -1"},
	} {
		_, err := ReadJSON(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	if l, err := ReadJSON(strings.NewReader(fmt.Sprintf(hdr, 2) + rec + rec)); err != nil {
		t.Errorf("a complete capture: %v", err)
	} else if l.Len() != 2 {
		t.Errorf("a complete capture read %d records, want 2", l.Len())
	}
}

func TestProbeTypeNameRoundTrip(t *testing.T) {
	for _, typ := range []probe.Type{probe.Unknown, probe.R1, probe.R5, probe.NR1, probe.NR3} {
		if got := probe.FromName(typ.String()); got != typ {
			t.Errorf("FromName(%q) = %v", typ.String(), got)
		}
	}
	if probe.FromName("bogus") != probe.Unknown {
		t.Error("bogus name not Unknown")
	}
}
