package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, s *Set) string {
	t.Helper()
	var sb strings.Builder
	if err := s.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestCounterRendering(t *testing.T) {
	s := NewSet()
	s.CounterFunc("roofserve_test_total", "", "a test counter", func() uint64 { return 3 })

	want := "# HELP roofserve_test_total a test counter\n" +
		"# TYPE roofserve_test_total counter\n" +
		"roofserve_test_total 3\n"
	if got := render(t, s); got != want {
		t.Fatalf("rendering:\n got: %q\nwant: %q", got, want)
	}
}

// TestLabeledFamilySharesHelpType: series with distinct labels under one
// name render one HELP/TYPE pair followed by each sample, in
// registration order.
func TestLabeledFamilySharesHelpType(t *testing.T) {
	s := NewSet()
	s.CounterFunc("roofserve_shed_total", `reason="queue_full"`, "sheds by reason", func() uint64 { return 5 })
	s.CounterFunc("roofserve_shed_total", `reason="client_quota"`, "sheds by reason", func() uint64 { return 1 })

	want := "# HELP roofserve_shed_total sheds by reason\n" +
		"# TYPE roofserve_shed_total counter\n" +
		"roofserve_shed_total{reason=\"queue_full\"} 5\n" +
		"roofserve_shed_total{reason=\"client_quota\"} 1\n"
	if got := render(t, s); got != want {
		t.Fatalf("rendering:\n got: %q\nwant: %q", got, want)
	}
}

// TestPullInstruments: CounterFunc and GaugeFunc read their source at
// scrape time, so two scrapes see the live value without any push.
func TestPullInstruments(t *testing.T) {
	s := NewSet()
	var hits uint64
	var depth float64
	s.CounterFunc("roofserve_hits_total", "", "pull counter", func() uint64 { return hits })
	s.GaugeFunc("roofserve_depth", "", "pull gauge", func() float64 { return depth })

	if got := render(t, s); !strings.Contains(got, "roofserve_hits_total 0\n") || !strings.Contains(got, "roofserve_depth 0\n") {
		t.Fatalf("initial scrape:\n%s", got)
	}
	hits, depth = 7, 2.5
	got := render(t, s)
	if !strings.Contains(got, "roofserve_hits_total 7\n") {
		t.Fatalf("counter did not follow source:\n%s", got)
	}
	if !strings.Contains(got, "# TYPE roofserve_depth gauge\n") || !strings.Contains(got, "roofserve_depth 2.5\n") {
		t.Fatalf("gauge did not follow source:\n%s", got)
	}
}

// TestHistogramRendering pins the conventional cumulative form: buckets
// accumulate, +Inf equals _count, _sum is the value total.
func TestHistogramRendering(t *testing.T) {
	s := NewSet()
	h := s.Histogram("roofserve_wait_seconds", "queue wait", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}

	want := "# HELP roofserve_wait_seconds queue wait\n" +
		"# TYPE roofserve_wait_seconds histogram\n" +
		"roofserve_wait_seconds_bucket{le=\"0.1\"} 1\n" +
		"roofserve_wait_seconds_bucket{le=\"1\"} 3\n" +
		"roofserve_wait_seconds_bucket{le=\"10\"} 4\n" +
		"roofserve_wait_seconds_bucket{le=\"+Inf\"} 5\n" +
		"roofserve_wait_seconds_sum 56.05\n" +
		"roofserve_wait_seconds_count 5\n"
	if got := render(t, s); got != want {
		t.Fatalf("rendering:\n got: %q\nwant: %q", got, want)
	}
}

// TestObserveOnBoundary: a value exactly on a bucket's upper bound lands
// in that bucket (le is inclusive).
func TestObserveOnBoundary(t *testing.T) {
	s := NewSet()
	h := s.Histogram("b_seconds", "boundary", []float64{1})
	h.Observe(1)
	got := render(t, s)
	if !strings.Contains(got, "b_seconds_bucket{le=\"1\"} 1\n") {
		t.Fatalf("boundary value not in its bucket:\n%s", got)
	}
}

func TestRegistrationPanics(t *testing.T) {
	zero := func() uint64 { return 0 }
	cases := []struct {
		name string
		f    func(s *Set)
	}{
		{"invalid name", func(s *Set) { s.CounterFunc("bad name", "", "h", zero) }},
		{"invalid labels", func(s *Set) { s.CounterFunc("ok_total", `not labels`, "h", zero) }},
		{"kind mismatch", func(s *Set) {
			s.CounterFunc("x_total", "", "h", zero)
			s.GaugeFunc("x_total", "", "h", func() float64 { return 0 })
		}},
		{"duplicate series", func(s *Set) {
			s.CounterFunc("y_total", `a="b"`, "h", zero)
			s.CounterFunc("y_total", `a="b"`, "h", zero)
		}},
		{"non-increasing bounds", func(s *Set) { s.Histogram("h_seconds", "h", []float64{1, 1}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.f(NewSet())
		})
	}
}

func TestServeHTTPContentType(t *testing.T) {
	s := NewSet()
	s.CounterFunc("roofserve_ok_total", "", "h", func() uint64 { return 1 })
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "roofserve_ok_total 1\n") {
		t.Fatalf("body:\n%s", rec.Body.String())
	}
}

// TestConcurrentObserve hammers a push instrument while scraping, under
// -race, and checks the final totals.
func TestConcurrentObserve(t *testing.T) {
	s := NewSet()
	h := s.Histogram("h_seconds", "h", []float64{0.5})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.25)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			_ = s.Render(&sb)
		}()
	}
	wg.Wait()

	got := render(t, s)
	if !strings.Contains(got, "h_seconds_count 8000\n") || !strings.Contains(got, "h_seconds_bucket{le=\"0.5\"} 8000\n") {
		t.Fatalf("histogram totals:\n%s", got)
	}
}
