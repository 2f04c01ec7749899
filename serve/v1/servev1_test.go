package servev1

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func boolPtr(b bool) *bool { return &b }

// TestCampaignRoundTrip: a fully-populated campaign survives a JSON
// round trip exactly, and its rendering parses back through the strict
// ParseCampaign path.
func TestCampaignRoundTrip(t *testing.T) {
	in := Campaign{
		System:    "Gold 6148",
		Workloads: []string{"dgemm", "triad", "spmv"},
		Seed:      99,
		Space:     []DimsSpec{{N: 256, M: 256, K: 128}, {N: 512, M: 512, K: 512}},
		Budget: &BudgetSpec{
			Invocations:   5,
			MaxIterations: 100,
			MaxTimeMs:     2000,
			Confidence:    boolPtr(true),
			InnerBound:    boolPtr(false),
			MinCount:      3,
		},
		TriadLoBytes:  1 << 14,
		TriadHiBytes:  1 << 26,
		TriadLevels:   []string{"L3", "DRAM"},
		Chain:         true,
		SpMVN:         4096,
		SpMVNNZPerRow: 16,
		StencilNX:     512,
		StencilNY:     512,
		Serial:        true,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseCampaign(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("campaign round trip:\n in: %+v\nout: %+v", in, out)
	}
}

// TestCampaignOmitsDefaults: zero-valued optional fields stay off the
// wire, so fingerprint-relevant renderings do not change when a new
// optional field is added.
func TestCampaignOmitsDefaults(t *testing.T) {
	data, err := json.Marshal(Campaign{System: "2650v4"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), `{"system":"2650v4"}`; got != want {
		t.Fatalf("minimal campaign rendering = %s, want %s", got, want)
	}
}

func TestParseCampaignRejectsUnknownFields(t *testing.T) {
	_, err := ParseCampaign(strings.NewReader(`{"system": "Gold 6148", "seeed": 7}`))
	if err == nil {
		t.Fatal("typoed field accepted")
	}
	if !strings.Contains(err.Error(), "parse campaign") {
		t.Fatalf("error %q lacks the parse-campaign prefix", err)
	}
}

func TestParseCampaignRejectsTrailingData(t *testing.T) {
	for _, tail := range []string{` {"system": "b"}`, `}`, ` }`, `]`, `]]]`, `x`, `{}`} {
		if _, err := ParseCampaign(strings.NewReader(`{"system": "a"}` + tail)); err == nil {
			t.Errorf("trailing %q accepted", tail)
		}
	}
	for _, tail := range []string{"", " ", "\n", " \t\r\n "} {
		if _, err := ParseCampaign(strings.NewReader(`{"system": "a"}` + tail)); err != nil {
			t.Errorf("trailing whitespace %q rejected: %v", tail, err)
		}
	}
}

func TestStateTerminal(t *testing.T) {
	for st, want := range map[State]bool{
		StateQueued:  false,
		StateRunning: false,
		StateDone:    true,
		StateFailed:  true,
		StateShed:    true,
	} {
		if got := st.Terminal(); got != want {
			t.Errorf("State(%q).Terminal() = %v, want %v", st, got, want)
		}
	}
}

// TestJobStatusRoundTrip: the Result bytes pass through as raw JSON,
// verbatim — the byte-identity guarantee depends on it.
func TestJobStatusRoundTrip(t *testing.T) {
	raw := json.RawMessage(`{"schema":"rooftune/result/v1","points":[{"name":"p","value":1.5}]}`)
	in := JobStatus{
		ID:          "j-7",
		Fingerprint: "abc123",
		State:       StateDone,
		Cached:      true,
		Events:      42,
		Result:      raw,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out JobStatus
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("status round trip:\n in: %+v\nout: %+v", in, out)
	}
	if string(out.Result) != string(raw) {
		t.Fatalf("result bytes not verbatim: %s", out.Result)
	}
}

// TestErrorEnvelope: the envelope decodes to a usable error value with
// the stable code and the retry hint.
func TestErrorEnvelope(t *testing.T) {
	body := `{"error":{"code":"overloaded","message":"admission refused","retryAfterSeconds":3}}`
	var env ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeOverloaded || env.Error.RetryAfterSeconds != 3 {
		t.Fatalf("decoded envelope: %+v", env.Error)
	}
	var e error = &env.Error
	if got, want := e.Error(), "overloaded: admission refused"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}
