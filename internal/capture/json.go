package capture

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// jsonRecord is the wire form of a Record: one JSON object per line
// (JSONL), with the payload base64-encoded by encoding/json.
type jsonRecord struct {
	Time     time.Time `json:"time"`
	SrcIP    string    `json:"src_ip"`
	SrcPort  int       `json:"src_port"`
	DstIP    string    `json:"dst_ip"`
	DstPort  int       `json:"dst_port"`
	ASN      int       `json:"asn"`
	TTL      int       `json:"ttl"`
	IPID     uint16    `json:"ip_id"`
	TSval    uint32    `json:"tsval"`
	Payload  []byte    `json:"payload"`
	Type     string    `json:"type"`
	ReplayOf time.Time `json:"replay_of,omitempty"`
}

// WriteJSON streams the log as JSON lines, one record per line, preceded
// by a header line carrying the log start time.
func (l *Log) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		Start   time.Time `json:"start"`
		Records int       `json:"records"`
	}{l.start, len(l.Records)}); err != nil {
		return err
	}
	for i := range l.Records {
		r := &l.Records[i]
		jr := jsonRecord{
			Time: r.Time, SrcIP: r.SrcIP, SrcPort: r.SrcPort,
			DstIP: r.DstIP, DstPort: r.DstPort, ASN: r.ASN,
			TTL: r.TTL, IPID: r.IPID, TSval: r.TSval,
			Payload: r.Payload, Type: r.Type.String(), ReplayOf: r.ReplayOf,
		}
		if err := enc.Encode(jr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSON loads a log written by WriteJSON. Probe types are re-derived
// from the stored names; unknown names map to the Unknown type. The
// header's record count must match the records that follow, so a
// truncated or overlong capture is an error, not a smaller analysis.
func ReadJSON(r io.Reader) (*Log, error) {
	dec := json.NewDecoder(r)
	var hdr struct {
		Start   time.Time `json:"start"`
		Records int       `json:"records"`
	}
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("capture: reading header: %w", err)
	}
	l := NewLog(hdr.Start)
	for {
		var jr jsonRecord
		if err := dec.Decode(&jr); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("capture: reading record %d: %w", len(l.Records), err)
		}
		if len(l.Records) == hdr.Records {
			return nil, fmt.Errorf("capture: record %d follows a header that declares %d records", len(l.Records)+1, hdr.Records)
		}
		l.Add(Record{
			Time: jr.Time, SrcIP: jr.SrcIP, SrcPort: jr.SrcPort,
			DstIP: jr.DstIP, DstPort: jr.DstPort, ASN: jr.ASN,
			TTL: jr.TTL, IPID: jr.IPID, TSval: jr.TSval,
			Payload: jr.Payload, Type: typeFromName(jr.Type), ReplayOf: jr.ReplayOf,
		})
	}
	if len(l.Records) != hdr.Records {
		return nil, fmt.Errorf("capture: read %d records, header declares %d", len(l.Records), hdr.Records)
	}
	return l, nil
}
