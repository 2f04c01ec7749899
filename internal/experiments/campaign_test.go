package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestCampaignRerunIdentical: each session runs its sweeps concurrently,
// and every sweep owns its engine, clock and noise streams, so two
// campaigns agree in every exported number, whatever the schedule.
func TestCampaignRerunIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full campaigns")
	}
	var blobs [2][]byte
	for i := range blobs {
		c, err := New().RunCampaign()
		if err != nil {
			t.Fatal(err)
		}
		if c.Intel == nil {
			t.Fatal("Intel comparison missing")
		}
		c.WallTime = 0
		if blobs[i], err = c.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("campaign rerun diverged:\n%s\nvs\n%s", blobs[0], blobs[1])
	}
}

func TestCampaignJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	r := New()
	c, err := r.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Seed  uint64 `json:"seed"`
		DGEMM []struct {
			System string  `json:"system"`
			FS1    float64 `json:"fs1_gflops"`
			S1Dims string  `json:"s1_dims"`
		} `json:"dgemm"`
		Triad []struct {
			DramS1 float64 `json:"dram_s1_gbps"`
		} `json:"triad"`
		Opt []struct {
			Technique string  `json:"technique"`
			Speedup   float64 `json:"speedup"`
		} `json:"optimizations"`
	}
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Seed != DefaultSeed || len(decoded.DGEMM) != 4 || len(decoded.Triad) != 4 {
		t.Fatalf("decoded header: %+v", decoded)
	}
	if decoded.DGEMM[0].System != "2650v4" || decoded.DGEMM[0].S1Dims != "1000,4096,128" {
		t.Fatalf("dgemm[0]: %+v", decoded.DGEMM[0])
	}
	// 9 techniques x 4 systems + 4 min100 rows on the 2695v4.
	if len(decoded.Opt) != 9*4+4 {
		t.Fatalf("opt rows: %d", len(decoded.Opt))
	}
}
