// Package metrics is the serving tier's observability plane: a
// dependency-free Prometheus-text-format (version 0.0.4) exposition of
// counters, gauges and histograms, served at GET /metrics.
//
// Two instrument styles cover the daemon's needs without a registry of
// callbacks woven through every package. The push instrument, Histogram,
// is handed to the component that observes the event — the admission
// controller pushes every queue-wait duration into its histogram. Pull
// instruments (CounterFunc, GaugeFunc) snapshot a
// component's own counters at scrape time — the cache's hit/miss/
// eviction counts are read from cache.Stats() when /metrics is scraped,
// so the exposition always reconciles exactly with the component's
// internal accounting and no double bookkeeping can drift.
//
// Scrapes take each component's lock only inside its own Stats method
// and never hold two locks at once, which keeps the exposition path
// inside the serving tier's lockorder discipline.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
)

// nameRE is the Prometheus metric-name grammar; labels are validated as
// a rendered `k="v"` list by labelRE.
var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*$`)
)

// Histogram is a push instrument with fixed upper-bound buckets and the
// conventional cumulative rendering (+Inf bucket, _sum, _count).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds, +Inf implicit
	counts []uint64  // len(bounds)+1, last is the +Inf overflow
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// snapshot copies the histogram state for rendering.
func (h *Histogram) snapshot() (counts []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.sum, h.count
}

// kind is the TYPE line a family advertises.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// series is one sample line within a family: a label set and how to
// read its current value(s).
type series struct {
	labels string
	hist   *Histogram
	fnU    func() uint64
	fnF    func() float64
}

// family groups the series sharing one metric name: one HELP/TYPE pair,
// then each series in registration order.
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
}

// Set is an ordered collection of metric families; it renders the
// exposition and serves it over HTTP.
type Set struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewSet builds an empty metric set.
func NewSet() *Set {
	return &Set{byName: make(map[string]*family)}
}

// register validates and attaches a series, creating the family on
// first sight. Mis-registration is a programming error and panics.
func (s *Set) register(name, labels, help string, k kind, sr *series) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	if labels != "" && !labelRE.MatchString(labels) {
		panic(fmt.Sprintf("metrics: invalid label rendering %q on %s", labels, name))
	}
	sr.labels = labels
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: k}
		s.byName[name] = f
		s.families = append(s.families, f)
	}
	if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.kind, k))
	}
	for _, existing := range f.series {
		if existing.labels == labels {
			panic(fmt.Sprintf("metrics: duplicate series %s{%s}", name, labels))
		}
	}
	f.series = append(f.series, sr)
}

// CounterFunc registers a pull counter: fn is read at scrape time and
// must be monotonically non-decreasing (snapshot a component's own
// counter, don't compute).
func (s *Set) CounterFunc(name, labels, help string, fn func() uint64) {
	s.register(name, labels, help, kindCounter, &series{fnU: fn})
}

// GaugeFunc registers a pull gauge read at scrape time.
func (s *Set) GaugeFunc(name, labels, help string, fn func() float64) {
	s.register(name, labels, help, kindGauge, &series{fnF: fn})
}

// Histogram registers a push histogram over the given strictly
// increasing upper bounds (the +Inf bucket is implicit).
func (s *Set) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s bucket bounds not strictly increasing", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	s.register(name, "", help, kindHistogram, &series{hist: h})
	return h
}

// Render writes the exposition in registration order.
func (s *Set) Render(w io.Writer) error {
	s.mu.Lock()
	families := append([]*family(nil), s.families...)
	s.mu.Unlock()
	for _, f := range families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, sr := range f.series {
			if err := renderSeries(w, f.name, sr); err != nil {
				return err
			}
		}
	}
	return nil
}

func renderSeries(w io.Writer, name string, sr *series) error {
	sample := func(suffix, labels, value string) error {
		if labels != "" {
			_, err := fmt.Fprintf(w, "%s%s{%s} %s\n", name, suffix, labels, value)
			return err
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, suffix, value)
		return err
	}
	switch {
	case sr.fnU != nil:
		return sample("", sr.labels, strconv.FormatUint(sr.fnU(), 10))
	case sr.fnF != nil:
		return sample("", sr.labels, formatFloat(sr.fnF()))
	case sr.hist != nil:
		counts, sum, count := sr.hist.snapshot()
		cum := uint64(0)
		for i, bound := range sr.hist.bounds {
			cum += counts[i]
			if err := sample("_bucket", fmt.Sprintf("le=%q", formatFloat(bound)), strconv.FormatUint(cum, 10)); err != nil {
				return err
			}
		}
		cum += counts[len(counts)-1]
		if err := sample("_bucket", `le="+Inf"`, strconv.FormatUint(cum, 10)); err != nil {
			return err
		}
		if err := sample("_sum", "", formatFloat(sum)); err != nil {
			return err
		}
		return sample("_count", "", strconv.FormatUint(count, 10))
	}
	return nil
}

// formatFloat renders values the way Prometheus expects: shortest
// round-trip representation, infinities spelled +Inf/-Inf.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ServeHTTP serves the exposition (GET /metrics).
func (s *Set) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.Render(w)
}
