package bench

import (
	"encoding/json"
	"fmt"
	"strconv"

	"rooftune/internal/hw"
)

// This file is the wire layer of the bench package: a canonical,
// content-addressable rendering of every Config variant (the serving
// tier's cache key) and a versioned JSON encoding of Config (a winner's
// identity in the serving tier's result payload). Both encodings
// dispatch on the closed Config sum with exhaustive type switches — the
// configsum analyzer machine-checks the switches, and
// TestWireVariantsExhaustive asserts the census here tracks
// configsum.Variants, so a new variant without wire support fails the
// build and the tests, never a daemon.

// AppendConfigCanonical appends the canonical rendering of a
// configuration's typed identity to dst and returns the extended buffer:
// the variant name followed by every field in its declared order. Two
// configurations render equal strings iff they are equal values of the
// same variant — the property that makes the string a sound content
// address. The rendering is part of the wire contract: the session
// fingerprint hashes it, so changing it invalidates every persisted
// cache entry. Hot paths that render every planned case append into one
// reused buffer instead of allocating a string per case. On error dst is
// returned unchanged.
func AppendConfigCanonical(dst []byte, c Config) ([]byte, error) {
	switch cfg := c.(type) {
	case DGEMMConfig:
		dst = append(dst, "DGEMMConfig{n="...)
		dst = strconv.AppendInt(dst, int64(cfg.N), 10)
		dst = append(dst, ",m="...)
		dst = strconv.AppendInt(dst, int64(cfg.M), 10)
		dst = append(dst, ",k="...)
		dst = strconv.AppendInt(dst, int64(cfg.K), 10)
		dst = appendPlacement(dst, cfg.Sockets, cfg.Threads)
	case TriadConfig:
		dst = append(dst, "TriadConfig{elements="...)
		dst = strconv.AppendInt(dst, int64(cfg.Elements), 10)
		dst = append(dst, ",affinity="...)
		dst = append(dst, cfg.Affinity.String()...)
		dst = appendPlacement(dst, cfg.Sockets, cfg.Threads)
	case SpMVConfig:
		dst = append(dst, "SpMVConfig{n="...)
		dst = strconv.AppendInt(dst, int64(cfg.N), 10)
		dst = append(dst, ",nnzPerRow="...)
		dst = strconv.AppendInt(dst, int64(cfg.NNZPerRow), 10)
		dst = append(dst, ",chunkRows="...)
		dst = strconv.AppendInt(dst, int64(cfg.ChunkRows), 10)
		dst = appendPlacement(dst, cfg.Sockets, cfg.Threads)
	case StencilConfig:
		dst = append(dst, "StencilConfig{nx="...)
		dst = strconv.AppendInt(dst, int64(cfg.NX), 10)
		dst = append(dst, ",ny="...)
		dst = strconv.AppendInt(dst, int64(cfg.NY), 10)
		dst = append(dst, ",tileX="...)
		dst = strconv.AppendInt(dst, int64(cfg.TileX), 10)
		dst = append(dst, ",tileY="...)
		dst = strconv.AppendInt(dst, int64(cfg.TileY), 10)
		dst = appendPlacement(dst, cfg.Sockets, cfg.Threads)
	case nil:
		return dst, fmt.Errorf("bench: AppendConfigCanonical(nil)")
	default:
		return dst, fmt.Errorf("bench: AppendConfigCanonical: unsupported config variant %T", c)
	}
	return dst, nil
}

// appendPlacement closes a canonical rendering with the placement fields
// every variant ends on.
func appendPlacement(dst []byte, sockets, threads int) []byte {
	dst = append(dst, ",sockets="...)
	dst = strconv.AppendInt(dst, int64(sockets), 10)
	dst = append(dst, ",threads="...)
	dst = strconv.AppendInt(dst, int64(threads), 10)
	return append(dst, '}')
}

// Canonical renders the budget with every field in declared order — the
// evaluation-process identity the session fingerprint hashes. Two
// budgets render equal strings iff every stop-condition parameter is
// equal, so a cache key built on it never serves a Confidence-technique
// result to a Default-technique request.
func (b Budget) Canonical() string {
	return fmt.Sprintf(
		"Budget{invocations=%d,maxIterations=%d,maxTime=%d,scope=%s,errorInverse=%s,ciLevel=%s,"+
			"confidence=%t,innerBound=%t,outerBound=%t,minCount=%d,minCISamples=%d,"+
			"steadyState=%t,steadyWindow=%d,steadyThreshold=%s}",
		b.Invocations, b.MaxIterations, int64(b.MaxTime), b.Scope,
		strconv.FormatFloat(b.ErrorInverse, 'g', -1, 64),
		strconv.FormatFloat(b.CILevel, 'g', -1, 64),
		b.UseConfidence, b.UseInnerBound, b.UseOuterBound, b.MinCount, b.MinCISamples,
		b.UseSteadyState, b.SteadyWindow,
		strconv.FormatFloat(b.SteadyThreshold, 'g', -1, 64))
}

// configWire is the JSON envelope for the Config sum: the variant name
// selects the decoder, so an unknown variant fails loudly on both ends.
type configWire struct {
	Variant string          `json:"variant"`
	Fields  json.RawMessage `json:"fields"`
}

// dgemmConfigWire mirrors DGEMMConfig field for field. The wire structs
// exist so the in-memory types can evolve (unexported fields, renamed
// Go identifiers) without silently changing the persisted schema.
type dgemmConfigWire struct {
	N       int `json:"n"`
	M       int `json:"m"`
	K       int `json:"k"`
	Sockets int `json:"sockets"`
	Threads int `json:"threads,omitempty"`
}

type triadConfigWire struct {
	Elements int    `json:"elements"`
	Affinity string `json:"affinity"`
	Sockets  int    `json:"sockets"`
	Threads  int    `json:"threads,omitempty"`
}

type spmvConfigWire struct {
	N         int `json:"n"`
	NNZPerRow int `json:"nnzPerRow"`
	ChunkRows int `json:"chunkRows"`
	Sockets   int `json:"sockets"`
	Threads   int `json:"threads,omitempty"`
}

type stencilConfigWire struct {
	NX      int `json:"nx"`
	NY      int `json:"ny"`
	TileX   int `json:"tileX"`
	TileY   int `json:"tileY"`
	Sockets int `json:"sockets"`
	Threads int `json:"threads,omitempty"`
}

// affinityWire renders the affinity policy by its stable name; decoding
// rejects unknown names rather than guessing.
func affinityWire(a hw.Affinity) string { return a.String() }

func parseAffinity(s string) (hw.Affinity, error) {
	switch s {
	case "close":
		return hw.AffinityClose, nil
	case "spread":
		return hw.AffinitySpread, nil
	default:
		return 0, fmt.Errorf("bench: unknown affinity %q", s)
	}
}

// MarshalConfig encodes a configuration as its versioned JSON envelope.
func MarshalConfig(c Config) ([]byte, error) {
	var (
		variant string
		fields  any
	)
	switch cfg := c.(type) {
	case DGEMMConfig:
		variant = "DGEMMConfig"
		fields = dgemmConfigWire{N: cfg.N, M: cfg.M, K: cfg.K, Sockets: cfg.Sockets, Threads: cfg.Threads}
	case TriadConfig:
		variant = "TriadConfig"
		fields = triadConfigWire{Elements: cfg.Elements, Affinity: affinityWire(cfg.Affinity), Sockets: cfg.Sockets, Threads: cfg.Threads}
	case SpMVConfig:
		variant = "SpMVConfig"
		fields = spmvConfigWire{N: cfg.N, NNZPerRow: cfg.NNZPerRow, ChunkRows: cfg.ChunkRows, Sockets: cfg.Sockets, Threads: cfg.Threads}
	case StencilConfig:
		variant = "StencilConfig"
		fields = stencilConfigWire{NX: cfg.NX, NY: cfg.NY, TileX: cfg.TileX, TileY: cfg.TileY, Sockets: cfg.Sockets, Threads: cfg.Threads}
	case nil:
		return nil, fmt.Errorf("bench: MarshalConfig(nil)")
	default:
		return nil, fmt.Errorf("bench: MarshalConfig: unsupported config variant %T", c)
	}
	raw, err := json.Marshal(fields)
	if err != nil {
		return nil, err
	}
	return json.Marshal(configWire{Variant: variant, Fields: raw})
}

// configDecoders maps variant names to decoders. UnmarshalConfig and the
// wire tests iterate it; TestWireVariantsExhaustive asserts its key set
// equals the configsum variant census.
var configDecoders = map[string]func(json.RawMessage) (Config, error){
	"DGEMMConfig": func(raw json.RawMessage) (Config, error) {
		var w dgemmConfigWire
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, err
		}
		return DGEMMConfig{N: w.N, M: w.M, K: w.K, Sockets: w.Sockets, Threads: w.Threads}, nil
	},
	"TriadConfig": func(raw json.RawMessage) (Config, error) {
		var w triadConfigWire
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, err
		}
		aff, err := parseAffinity(w.Affinity)
		if err != nil {
			return nil, err
		}
		return TriadConfig{Elements: w.Elements, Affinity: aff, Sockets: w.Sockets, Threads: w.Threads}, nil
	},
	"SpMVConfig": func(raw json.RawMessage) (Config, error) {
		var w spmvConfigWire
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, err
		}
		return SpMVConfig{N: w.N, NNZPerRow: w.NNZPerRow, ChunkRows: w.ChunkRows, Sockets: w.Sockets, Threads: w.Threads}, nil
	},
	"StencilConfig": func(raw json.RawMessage) (Config, error) {
		var w stencilConfigWire
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, err
		}
		return StencilConfig{NX: w.NX, NY: w.NY, TileX: w.TileX, TileY: w.TileY, Sockets: w.Sockets, Threads: w.Threads}, nil
	},
}

// UnmarshalConfig decodes a configuration envelope. An empty envelope
// decodes to a nil Config (an Outcome from a test fake may carry none);
// an unknown variant is an error, never a silently dropped winner.
func UnmarshalConfig(data []byte) (Config, error) {
	var w configWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("bench: config envelope: %w", err)
	}
	if w.Variant == "" && w.Fields == nil {
		return nil, nil
	}
	dec, ok := configDecoders[w.Variant]
	if !ok {
		return nil, fmt.Errorf("bench: unknown config variant %q on the wire", w.Variant)
	}
	c, err := dec(w.Fields)
	if err != nil {
		return nil, fmt.Errorf("bench: decoding %s: %w", w.Variant, err)
	}
	return c, nil
}
