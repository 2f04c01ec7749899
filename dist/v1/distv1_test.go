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
