package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"rooftune/internal/hw"
	"rooftune/internal/lint"
	"rooftune/internal/lint/configsum"
)

// wireConfigs is one representative value per Config variant, with every
// field nonzero so a dropped field shows up as a round-trip diff. The
// exhaustiveness test below asserts this table tracks the configsum
// variant census, so a new variant without wire coverage fails here.
var wireConfigs = map[string]Config{
	"DGEMMConfig":   DGEMMConfig{N: 1000, M: 4096, K: 128, Sockets: 2, Threads: 8},
	"TriadConfig":   TriadConfig{Elements: 1 << 20, Affinity: hw.AffinitySpread, Sockets: 2, Threads: 4},
	"SpMVConfig":    SpMVConfig{N: 1 << 18, NNZPerRow: 16, ChunkRows: 512, Sockets: 1, Threads: 6},
	"StencilConfig": StencilConfig{NX: 2048, NY: 1024, TileX: 256, TileY: 8, Sockets: 1, Threads: 3},
}

func TestConfigJSONRoundTrip(t *testing.T) {
	for name, cfg := range wireConfigs {
		t.Run(name, func(t *testing.T) {
			data, err := MarshalConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			back, err := UnmarshalConfig(data)
			if err != nil {
				t.Fatalf("decoding %s: %v", data, err)
			}
			if !reflect.DeepEqual(back, cfg) {
				t.Fatalf("round trip changed the config:\nsent: %#v\ngot:  %#v", cfg, back)
			}
		})
	}
}

// TestConfigCanonicalRendering pins the canonical text of every variant:
// session fingerprints hash it, so a byte that moves
// re-keys every stored cache entry. Negative and zero fields and both
// affinities are covered because the renderer appends integers itself.
func TestConfigCanonicalRendering(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{wireConfigs["DGEMMConfig"], "DGEMMConfig{n=1000,m=4096,k=128,sockets=2,threads=8}"},
		{wireConfigs["TriadConfig"], "TriadConfig{elements=1048576,affinity=spread,sockets=2,threads=4}"},
		{wireConfigs["SpMVConfig"], "SpMVConfig{n=262144,nnzPerRow=16,chunkRows=512,sockets=1,threads=6}"},
		{wireConfigs["StencilConfig"], "StencilConfig{nx=2048,ny=1024,tileX=256,tileY=8,sockets=1,threads=3}"},
		{DGEMMConfig{N: -1, M: 0, K: -9223372036854775808}, "DGEMMConfig{n=-1,m=0,k=-9223372036854775808,sockets=0,threads=0}"},
		{TriadConfig{Elements: 7, Affinity: hw.AffinityClose, Sockets: 1}, "TriadConfig{elements=7,affinity=close,sockets=1,threads=0}"},
	}
	for _, c := range cases {
		// Appending extends the caller's buffer in place.
		buf, err := AppendConfigCanonical([]byte("case="), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf) != "case="+c.want {
			t.Errorf("AppendConfigCanonical(prefix, %#v) = %q", c.cfg, buf)
		}
	}
	buf, err := AppendConfigCanonical([]byte("keep"), nil)
	if err == nil || string(buf) != "keep" {
		t.Fatalf("AppendConfigCanonical(nil) = %q, %v; want the buffer unchanged and an error", buf, err)
	}
}

// TestConfigCanonicalDistinguishes checks the content-address property
// on the mutations that matter: a changed field value and a different
// variant with coincidentally similar fields must render differently.
func TestConfigCanonicalDistinguishes(t *testing.T) {
	base := DGEMMConfig{N: 1000, M: 4096, K: 128, Sockets: 1}
	mutants := []Config{
		DGEMMConfig{N: 1001, M: 4096, K: 128, Sockets: 1},
		DGEMMConfig{N: 1000, M: 4096, K: 128, Sockets: 2},
		DGEMMConfig{N: 1000, M: 4096, K: 128, Sockets: 1, Threads: 1},
		TriadConfig{Elements: 1000, Sockets: 1},
	}
	baseText, err := AppendConfigCanonical(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mutants {
		text, err := AppendConfigCanonical(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if string(text) == string(baseText) {
			t.Fatalf("%#v renders equal to %#v", m, base)
		}
	}
}

func TestConfigWireRejectsUnknownVariant(t *testing.T) {
	if _, err := UnmarshalConfig([]byte(`{"variant":"FFTConfig","fields":{}}`)); err == nil {
		t.Fatal("unknown variant must fail decoding")
	} else if !strings.Contains(err.Error(), "FFTConfig") {
		t.Fatalf("error %q does not name the variant", err)
	}
	type fake struct{ DGEMMConfig }
	if _, err := MarshalConfig(fake{}); err == nil {
		t.Fatal("unknown variant must fail encoding")
	}
	if _, err := AppendConfigCanonical(nil, fake{}); err == nil {
		t.Fatal("unknown variant must fail rendering")
	}
}

// TestWireVariantsExhaustive is the rendering/serialization analogue of
// the root config round-trip test: it takes the bench.Config variant
// census from the configsum analyzer (the same census rooflint enforces
// tree-wide) and asserts the wire layer — decoder table, canonical
// rendering and the representative table above — covers every variant. A
// fifth variant added without wire support fails here, not in a
// daemon's cache layer.
func TestWireVariantsExhaustive(t *testing.T) {
	pkgs, err := lint.Load("../..", "./internal/bench")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want exactly internal/bench", len(pkgs))
	}
	variants, err := configsum.VariantNames(pkgs[0].Types)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range variants {
		if _, ok := configDecoders[name]; !ok {
			t.Errorf("bench.Config variant %s has no wire decoder: add it to configDecoders, MarshalConfig and AppendConfigCanonical", name)
		}
		if _, ok := wireConfigs[name]; !ok {
			t.Errorf("bench.Config variant %s has no representative in wireConfigs: rendering and round-trip coverage is incomplete", name)
		}
	}
	declared := map[string]bool{}
	for _, name := range variants {
		declared[name] = true
	}
	for name := range configDecoders {
		if !declared[name] {
			t.Errorf("wire decoder covers %s, which internal/bench no longer declares", name)
		}
	}
}

// BenchmarkConfigCanonical measures the content-address rendering over
// every Config variant into one reused buffer — the per-case cost the
// session fingerprint pays before the serving tier can consult its cache.
func BenchmarkConfigCanonical(b *testing.B) {
	configs := make([]Config, 0, len(wireConfigs))
	for _, c := range wireConfigs {
		configs = append(configs, c)
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range configs {
			var err error
			if buf, err = AppendConfigCanonical(buf[:0], c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// FuzzConfigRoundTrip feeds arbitrary bytes to the variant-tagged config
// decoder. No input may panic, and an accepted config must re-marshal to
// bytes that decode and re-marshal to themselves. The seed corpus lives
// in testdata/fuzz/FuzzConfigRoundTrip and also runs in every plain
// `go test`.
func FuzzConfigRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg, err := UnmarshalConfig(body)
		if err != nil || cfg == nil {
			return // rejected, or the empty envelope of "no config"
		}
		first, err := MarshalConfig(cfg)
		if err != nil {
			t.Fatalf("marshalling an accepted %#v: %v", cfg, err)
		}
		again, err := UnmarshalConfig(first)
		if err != nil {
			t.Fatalf("decoding the re-marshalled %s: %v", first, err)
		}
		if !reflect.DeepEqual(again, cfg) {
			t.Fatalf("round trip changed the config:\nsent: %#v\ngot:  %#v", cfg, again)
		}
		second, err := MarshalConfig(again)
		if err != nil {
			t.Fatalf("marshalling the re-decoded config: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not idempotent:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
