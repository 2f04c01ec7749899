package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// checkExact makes the exact-count metrics repeat bit for bit across
// runs. Each run stores the exact values it measured under a key of
// workload, seed, trace mode and a hash of the checkout's Go sources; a
// later run of the same key must measure the same values, or the run is
// reported invalid. Within a run, traced passes are compared with each
// other as well (campaignLoop.report).
func (r *report) checkExact(o opts) error {
	if len(r.exacts) == 0 {
		return nil
	}
	vals := map[string]float64{}
	for _, name := range r.exacts {
		if _, wanted := r.want[name]; wanted {
			vals[name] = r.values[name]
		}
	}
	if len(vals) == 0 {
		return nil
	}
	src, err := sourceHash(".")
	if err != nil {
		return fmt.Errorf("hash sources: %w", err)
	}
	dir := filepath.Join(o.out, "exact")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t-%s.json", r.workload, o.seed, o.trace, src[:16]))
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		names := make([]string, 0, len(vals))
		for name := range vals {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if p, ok := prev[name]; ok && math.Float64bits(p) != math.Float64bits(vals[name]) {
				r.invalid("exact metric %s = %v, an earlier run of this seed measured %v", name, vals[name], p)
			}
		}
		return nil
	}
	data, err := json.Marshal(vals)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sourceHash hashes every Go source and go.mod file under root, skipping
// dot-directories such as the build directory.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
