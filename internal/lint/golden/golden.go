// Package golden is the snapshot regime shared by rooflint's
// contract-stability analyzers (apisurface, wirecompat): committed text
// files under api/ that pin a rendered contract — the exported API
// surface, the wire schema's field census — so any drift is a build
// failure instead of a silent cache invalidation.
//
// A golden file is a sorted list of lines. Each line carries a stable
// identity (its leading fields) and a rendering (the rest); the diff
// classifies drift by identity: an identity present in the golden but
// not in the fresh rendering is a removal (breaking), present in both
// with a different rendering is a change (breaking), and present only
// in the rendering is an addition (allowed, but the golden must be
// regenerated with rooflint -write-goldens so the change is declared in
// the diff the reviewer reads).
package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// WriteMode switches the golden analyzers from checking to writing:
// instead of diffing the rendering against the committed golden they
// rewrite it. cmd/rooflint -write-goldens sets it before the run.
var WriteMode bool

// Line is one golden entry: a stable identity and its rendering.
type Line struct {
	// ID is the entry's identity — what must not disappear or change
	// meaning (e.g. "func New", "bench dgemmConfigWire.n").
	ID string
	// Rendering is the full contract text for the identity (signature,
	// field type and options, ...).
	Rendering string
}

// String renders the entry as its golden-file line.
func (l Line) String() string {
	if l.Rendering == "" {
		return l.ID
	}
	return l.ID + " = " + l.Rendering
}

// parseLine splits a golden-file line back into identity and rendering.
func parseLine(s string) Line {
	if id, rendering, ok := strings.Cut(s, " = "); ok {
		return Line{ID: id, Rendering: rendering}
	}
	return Line{ID: s}
}

// Sort orders lines by identity (then rendering, for determinism if an
// identity ever repeats).
func Sort(lines []Line) {
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].ID != lines[j].ID {
			return lines[i].ID < lines[j].ID
		}
		return lines[i].Rendering < lines[j].Rendering
	})
}

// Read loads a golden file. A missing file returns (nil, false, nil):
// the caller reports "golden missing" rather than erroring, so a fresh
// checkout fails with an actionable finding instead of a crash.
func Read(path string) (lines []Line, ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	for _, raw := range strings.Split(string(data), "\n") {
		raw = strings.TrimRight(raw, "\r")
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		lines = append(lines, parseLine(raw))
	}
	return lines, true, nil
}

// Write renders the lines (sorted, with a generated-file header) to
// path, creating the directory if needed.
func Write(path, header string, lines []Line) error {
	Sort(lines)
	var sb strings.Builder
	for _, h := range strings.Split(strings.TrimSpace(header), "\n") {
		fmt.Fprintf(&sb, "# %s\n", strings.TrimSpace(h))
	}
	for _, l := range lines {
		sb.WriteString(l.String())
		sb.WriteByte('\n')
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// DiffKind classifies one golden drift.
type DiffKind int

// Drift classes.
const (
	// Removed: the identity is in the golden but not in the rendering —
	// a breaking change (a consumer of the contract loses the entry).
	Removed DiffKind = iota
	// Changed: the identity survives but its rendering differs — a
	// retype or signature change, breaking for the same reason.
	Changed
	// Added: the rendering has an identity the golden lacks — additive,
	// but it must be declared by regenerating the golden.
	Added
)

// Diff is one classified drift entry.
type Diff struct {
	Kind   DiffKind
	ID     string
	Golden string // the golden rendering (Removed, Changed)
	Fresh  string // the fresh rendering (Changed, Added)
}

// Compare diffs the fresh rendering against the golden lines and
// returns the classified drift in deterministic (identity) order.
func Compare(goldenLines, fresh []Line) []Diff {
	goldenByID := make(map[string]string, len(goldenLines))
	for _, l := range goldenLines {
		goldenByID[l.ID] = l.Rendering
	}
	freshByID := make(map[string]string, len(fresh))
	for _, l := range fresh {
		freshByID[l.ID] = l.Rendering
	}
	var diffs []Diff
	for id, g := range goldenByID {
		f, ok := freshByID[id]
		switch {
		case !ok:
			diffs = append(diffs, Diff{Kind: Removed, ID: id, Golden: g})
		case f != g:
			diffs = append(diffs, Diff{Kind: Changed, ID: id, Golden: g, Fresh: f})
		}
	}
	for id, f := range freshByID {
		if _, ok := goldenByID[id]; !ok {
			diffs = append(diffs, Diff{Kind: Added, ID: id, Fresh: f})
		}
	}
	sort.Slice(diffs, func(i, j int) bool {
		if diffs[i].ID != diffs[j].ID {
			return diffs[i].ID < diffs[j].ID
		}
		return diffs[i].Kind < diffs[j].Kind
	})
	return diffs
}

// Section filters the golden lines whose identity starts with the given
// section prefix (a word followed by a space). wirecompat's golden
// holds one section per scoped package, each checked by its own pass.
func Section(lines []Line, section string) []Line {
	var out []Line
	prefix := section + " "
	for _, l := range lines {
		if strings.HasPrefix(l.ID, prefix) {
			out = append(out, l)
		}
	}
	return out
}

// ReplaceSection returns the golden lines with the named section
// replaced by fresh. Write mode uses it so one pass rewrites only its
// own slice of a shared golden file.
func ReplaceSection(lines []Line, section string, fresh []Line) []Line {
	prefix := section + " "
	out := make([]Line, 0, len(lines)+len(fresh))
	for _, l := range lines {
		if !strings.HasPrefix(l.ID, prefix) {
			out = append(out, l)
		}
	}
	return append(out, fresh...)
}
