package rooftune

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/units"
)

// TestResultJSONRoundTrip runs a real simulated session and pins the
// serving tier's core guarantee: a Result survives JSON encode/decode
// with every field intact and an identical rebuilt Roofline model, so
// the decoded Summary is byte-identical to the in-process one.
func TestResultJSONRoundTrip(t *testing.T) {
	sess, err := New(append(tinySessionOptions(), WithWorkloads("dgemm", "triad"))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, got) {
		t.Fatalf("Result round trip diverged:\nin  %+v\nout %+v", *res, got)
	}
	if res.Summary() != got.Summary() {
		t.Fatalf("Summary diverged after round trip:\nin:\n%s\nout:\n%s", res.Summary(), got.Summary())
	}

	// The encoding itself must be deterministic — content-addressed cache
	// entries are compared byte for byte.
	again, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatalf("marshalling the same Result twice produced different bytes")
	}
}

// TestResultJSONSyntheticRoundTrip covers wire fields a tiny run may not
// exercise: application points with intensity, SpMV/stencil configs,
// warnings, and theoretical peaks.
func TestResultJSONSyntheticRoundTrip(t *testing.T) {
	in := Result{
		SystemName: "Gold 6148",
		Engine:     "sim",
		Compute: []ComputePoint{
			{
				Label: "DGEMM", Sockets: 2,
				Dims:   core.Dims{N: 4096, M: 4096, K: 256},
				Config: bench.DGEMMConfig{N: 4096, M: 4096, K: 256, Sockets: 2},
				Desc:   "n,m,k=4096x4096x256",
				Flops:  1.23456789e12, Theoretical: 2.4e12,
			},
			{
				Label: "SpMV", Sockets: 1,
				Config: bench.SpMVConfig{N: 262144, NNZPerRow: 16, ChunkRows: 512, Sockets: 1},
				Desc:   "n=262144 nnz/row=16 chunk=512 sockets=1",
				Flops:  8.9e9, Intensity: 0.16,
			},
		},
		Memory: []MemoryPoint{
			{Sockets: 2, Region: "DRAM", Elements: 1 << 24, Bandwidth: 1.9e11, Theoretical: 2.56e11},
			{Sockets: 1, Region: "L3", Elements: 1 << 18, Bandwidth: 4.2e11},
		},
		SearchTime: 137*time.Second + 41*time.Nanosecond,
		Warnings:   []string{"workload triad: region L1 is empty under the session bounds"},
	}
	in.Roofline = assembleRoofline(&in)

	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("synthetic Result round trip diverged:\nin  %+v\nout %+v", in, got)
	}
	if got.Compute[1].Intensity != units.Intensity(0.16) {
		t.Fatalf("intensity lost: %v", got.Compute[1].Intensity)
	}
}

func TestResultJSONRejectsWrongSchema(t *testing.T) {
	for _, raw := range []string{
		`{"systemName":"x","engine":"y"}`,
		`{"schema":"rooftune/result/v2","systemName":"x","engine":"y"}`,
	} {
		var r Result
		err := json.Unmarshal([]byte(raw), &r)
		if err == nil || !strings.Contains(err.Error(), "schema") {
			t.Fatalf("decoding %s: error %v, want schema rejection", raw, err)
		}
	}
}

// TestEventJSONRoundTrip enumerates every EventKind: each serializes
// with its kind by name and round-trips exactly — the SSE stream's
// per-event contract.
func TestEventJSONRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: EventSweepStarted, Sweep: "dgemm/2s", Cases: 42},
		{Kind: EventCaseEvaluated, Sweep: "dgemm/2s", Case: "n,m,k=512x512x128", Value: 812.5, Unit: "GFLOP/s", Pruned: true},
		{Kind: EventSweepWon, Sweep: "dgemm/2s", Case: "n,m,k=2048x2048x128", Value: 1204.25, Unit: "GFLOP/s", Elapsed: 3 * time.Second},
		{Kind: EventRegionEmpty, Workload: "triad", Warning: "workload triad: region L1 is empty"},
		{Kind: EventSweepSeeded, Sweep: "triad/L3/1s", From: "triad/DRAM/1s", Value: 96.5, Unit: "GB/s"},
	}
	if len(events) != len(eventKindNames) {
		t.Fatalf("test covers %d kinds, wire table has %d — extend both together", len(events), len(eventKindNames))
	}
	for _, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("%v: %v", ev.Kind, err)
		}
		if want := `"kind":"` + eventKindNames[ev.Kind] + `"`; !strings.Contains(string(data), want) {
			t.Fatalf("%v encodes as %s, missing %s", ev.Kind, data, want)
		}
		var got Event
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%v: %v", ev.Kind, err)
		}
		if got != ev {
			t.Fatalf("event round trip diverged:\nin  %+v\nout %+v", ev, got)
		}
	}
}

func TestEventJSONRejectsUnknownKind(t *testing.T) {
	var ev Event
	err := json.Unmarshal([]byte(`{"kind":"sweep-exploded"}`), &ev)
	if err == nil || !strings.Contains(err.Error(), "sweep-exploded") {
		t.Fatalf("error %v, want unknown-kind rejection naming it", err)
	}
	if _, err := json.Marshal(Event{Kind: EventKind(99)}); err == nil {
		t.Fatal("marshalling an unknown kind must error")
	}
}

// FuzzResultUnmarshal feeds arbitrary bytes to the result/v1 decoder. No
// input may panic, and an accepted Result must re-marshal to bytes that
// decode and re-marshal to themselves: what a serving tier caches and
// replays stays fixed after one round. The seed corpus lives in
// testdata/fuzz/FuzzResultUnmarshal and also runs in every plain
// `go test`.
func FuzzResultUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var r Result
		if err := json.Unmarshal(body, &r); err != nil {
			return
		}
		first, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshalling an accepted Result: %v", err)
		}
		var again Result
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("decoding the re-marshalled %s: %v", first, err)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("marshalling the re-decoded Result: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not idempotent:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
