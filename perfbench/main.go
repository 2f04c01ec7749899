// Command perfbench is rooftune's end-to-end benchmark. It drives the
// shipped code from outside — the public Session API in-process, the
// roofserved and roofworkerd binaries over loopback, and each layer's
// exported entry points — on one named workload, checks every output,
// and prints one JSON object as the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds the
// benchmark and the daemons from the checkout first:
//
//	bash perfbench/run.sh --workload sim-campaigns --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures and prints the end-to-end metrics; --trace 1 runs
// the same workload with spans recorded around each layer's calls and
// prints the per-layer metrics instead. README.md in this directory
// records every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(ctx context.Context, o opts, r *report) error{
	"sim-campaigns": runSimCampaigns,
	"serve-fleet":   runServeFleet,
}

// opts are the command-line arguments every workload receives.
type opts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	bin     string // directory holding the roofserved and roofworkerd binaries
	out     string // directory for trace files and exact-count records
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		bin      = flag.String("bin", ".bench_build/perfbench/bin", "directory holding roofserved and roofworkerd")
		out      = flag.String("out", ".bench_build/perfbench", "directory for trace files and exact-count records")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, bin: *bin, out: *out}
	// Every run ends well inside the three-minute limit: the measured
	// seconds plus a fixed allowance for set-up, checks and shutdown.
	ctx, cancel := context.WithTimeout(context.Background(), o.seconds+120*time.Second)
	defer cancel()

	want := decl.endToEnd
	if o.trace {
		want = decl.perLayer
	}
	r := newReport(*workload, want)
	if err := drive(ctx, o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := r.checkExact(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := r.render()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// declared is the metric census of BENCHMARK.json: name to unit.
type declared struct {
	endToEnd, perLayer map[string]string
}

// loadDeclared reads the metric lists the benchmark promises to print,
// so a metric added to the code but not to BENCHMARK.json (or the
// reverse) fails the run instead of silently changing the contract.
func loadDeclared(path string) (declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return declared{}, fmt.Errorf("read metric declarations: %w", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return declared{}, fmt.Errorf("parse %s: %w", path, err)
	}
	d := declared{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, m := range doc.EndToEnd {
		d.endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		d.perLayer[m.Name] = m.Unit
	}
	return d, nil
}

// report accumulates one run's outcome: operation counts, benchmark-level
// problems and metric values.
type report struct {
	workload  string
	want      map[string]string // metrics to print: name to unit
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
	exacts    []string // metrics that must repeat exactly for a seed
	logged    int
}

func newReport(workload string, want map[string]string) *report {
	return &report{workload: workload, want: want, values: map[string]float64{}}
}

// op records one attempted operation; a non-nil err counts it as failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.logged < 10 {
			r.logged++
			fmt.Fprintf(os.Stderr, "perfbench: %s: failed operation: %v\n", r.workload, err)
		}
	}
}

// failOp marks an already attempted operation as failed: a check made
// after the measurement, such as an in-process replay.
func (r *report) failOp(err error) {
	r.failed++
	if r.logged < 10 {
		r.logged++
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed check: %v\n", r.workload, err)
	}
}

// invalid marks the whole run as not trustworthy: a broken exact count,
// an unreconciled counter or a generator that fell behind.
func (r *report) invalid(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(os.Stderr, "perfbench: %s: invalid run: %s\n", r.workload, msg)
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// exact marks metrics as pure functions of the seed and the code: see
// checkExact.
func (r *report) exact(names ...string) { r.exacts = append(r.exacts, names...) }

// notExercised sets every wanted metric under the given layer prefixes
// to zero: the workload does not run those layers.
func (r *report) notExercised(prefixes ...string) {
	for name := range r.want {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				r.values[name] = 0
			}
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render builds the result line holding exactly the wanted metrics. A
// wanted metric the workload did not set, or a value that is not a
// finite number, is a benchmark bug and fails the run.
func (r *report) render() ([]byte, error) {
	out := make(map[string]metricValue, len(r.want))
	for name, unit := range r.want {
		v, ok := r.values[name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.workload, name)
		}
		if !finite(v) {
			return nil, fmt.Errorf("%s: metric %s is %v", r.workload, name, v)
		}
		out[name] = metricValue{Value: v, Unit: unit}
	}
	attempted := r.attempted
	if attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", r.workload)
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, attempted, r.failed, out})
}
