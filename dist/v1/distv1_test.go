package distv1

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// validSpec is a node spec as a coordinator sends it for the chained
// TRIAD campaign: a seeded L3 node.
const validSpec = `{"schema":"rooftune/dist/v1","campaign":{"system":"Gold 6148","workloads":["triad"],"triadLoBytes":16384,"triadHiBytes":268435456,"triadLevels":["L2","L3","DRAM"],"chain":true},"nodeId":"triad/L3/2s","seedValue":140794024334.95596,"fingerprint":"c4c122afdc5cdc967210b59675f71f018d5bdb46bfee1c36ac2a4df67fd76eed"}`

func TestParseNodeSpecRejectsTrailingData(t *testing.T) {
	for _, tail := range []string{`}`, ` }`, `]`, `]]]`, `x`, `{}`, validSpec} {
		if _, err := ParseNodeSpec(strings.NewReader(validSpec + tail)); err == nil {
			t.Errorf("trailing %q accepted", tail)
		}
	}
	for _, tail := range []string{"", " ", "\n", " \t\r\n "} {
		if _, err := ParseNodeSpec(strings.NewReader(validSpec + tail)); err != nil {
			t.Errorf("trailing whitespace %q rejected: %v", tail, err)
		}
	}
}

// validOutcome and validHeartbeat are a worker's responses as it sends
// them: a TRIAD node outcome and an idle worker's heartbeat.
const (
	validOutcome   = `{"schema":"rooftune/dist/v1","nodeId":"triad/L3/2s","fingerprint":"c4c122afdc5cdc967210b59675f71f018d5bdb46bfee1c36ac2a4df67fd76eed","worker":"w1","winner":{"variant":"TriadConfig","fields":{"elements":1048576,"affinity":"spread","sockets":2}},"desc":"N=1048576","value":140794024334.95596,"elapsedNs":2213017655,"prunedCount":3,"totalSamples":750}`
	validHeartbeat = `{"schema":"rooftune/dist/v1","worker":"w1","running":0,"capacity":2,"nodesRun":0}`
)

// TestResponseParsers: ParseNodeOutcome and ParseHeartbeat accept one
// object of this schema, with fields a newer worker may add, followed
// by nothing but whitespace; they reject another or a missing schema
// and any trailing data. ParseNodeSpec alone rejects unknown fields.
func TestResponseParsers(t *testing.T) {
	parsers := map[string]struct {
		valid string
		parse func(string) error
	}{
		"outcome": {validOutcome, func(b string) error {
			_, err := ParseNodeOutcome(strings.NewReader(b))
			return err
		}},
		"heartbeat": {validHeartbeat, func(b string) error {
			_, err := ParseHeartbeat(strings.NewReader(b))
			return err
		}},
	}
	for name, p := range parsers {
		newer := strings.TrimSuffix(p.valid, "}") + `,"addedLater":{"x":[1,2]}}`
		for _, body := range []string{p.valid, p.valid + " \n", newer} {
			if err := p.parse(body); err != nil {
				t.Errorf("%s: %s rejected: %v", name, body, err)
			}
		}
		for _, body := range []string{
			strings.Replace(p.valid, Schema, "rooftune/dist/v0", 1),
			strings.Replace(p.valid, `"schema":"`+Schema+`",`, "", 1),
			p.valid + "{}", p.valid + "]", p.valid + "x", p.valid + p.valid,
			p.valid[:len(p.valid)/2],
		} {
			if err := p.parse(body); err == nil {
				t.Errorf("%s: %s accepted", name, body)
			}
		}
	}
	newer := strings.TrimSuffix(validSpec, "}") + `,"addedLater":1}`
	if _, err := ParseNodeSpec(strings.NewReader(newer)); err == nil {
		t.Error("ParseNodeSpec accepted an unknown field")
	}
}

// FuzzParseNodeSpec feeds arbitrary bodies to the worker's spec decoder:
// no input may panic, and a spec it accepts must round-trip idempotently
// through its own wire rendering. The seed corpus lives in
// testdata/fuzz/FuzzParseNodeSpec and also runs in every plain go test.
func FuzzParseNodeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := ParseNodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		first, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshalling an accepted spec: %v", err)
		}
		again, err := ParseNodeSpec(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-parsing %s: %v", first, err)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("marshalling the re-parsed spec: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not idempotent:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}

// FuzzParseHeartbeat feeds arbitrary bodies to the coordinator's
// heartbeat decoder: no input may panic, a heartbeat it accepts is of
// this schema, and it must round-trip idempotently through its own wire
// rendering. The seed corpus lives in testdata/fuzz/FuzzParseHeartbeat
// and also runs in every plain go test.
func FuzzParseHeartbeat(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		hb, err := ParseHeartbeat(bytes.NewReader(body))
		if err != nil {
			return
		}
		if hb.Schema != Schema {
			t.Fatalf("accepted a heartbeat of schema %q", hb.Schema)
		}
		first, err := json.Marshal(hb)
		if err != nil {
			t.Fatalf("marshalling an accepted heartbeat: %v", err)
		}
		again, err := ParseHeartbeat(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-parsing %s: %v", first, err)
		}
		if again != hb {
			t.Fatalf("round trip changed the heartbeat:\nfirst:  %+v\nsecond: %+v", hb, again)
		}
	})
}
