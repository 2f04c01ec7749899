package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one started roofserved or roofworkerd process.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	url    string
	output *lockedBuffer // stdout and stderr
	done   chan struct{} // closed once the process has been reaped
	rssKiB int64         // peak RSS, known after stop
}

// lockedBuffer is an io.Writer safe for the exec package's copying
// goroutines and concurrent readers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon starts a daemon binary and waits for the line announcing
// its listen address.
func startDaemon(ctx context.Context, bin, name string, args ...string) (*daemon, error) {
	d := &daemon{name: name, output: &lockedBuffer{}, done: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(bin, name), args...)
	d.cmd.Stdout = d.output
	d.cmd.Stderr = d.output
	// Should the benchmark die without stopping the fleet, the kernel
	// stops the daemons for it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is irrelevant: stop sends SIGTERM
		close(d.done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if line, ok := strings.CutPrefix(firstLine(d.output.String()), name+" listening on "); ok {
			d.url = line
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("%s exited before listening: %s", name, d.output.String())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s did not announce its address within 10s", name)
		}
	}
}

func firstLine(s string) string {
	line, _, ok := strings.Cut(s, "\n")
	if !ok {
		return ""
	}
	return line
}

// stop terminates the daemon and waits until it has been reaped,
// killing it if it has not exited within ten seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		d.rssKiB = ru.Maxrss
	}
}

// fleet is a roofserved coordinator in front of two roofworkerd workers.
type fleet struct {
	coord   *daemon
	workers []*daemon
	scraper *http.Client
}

// startFleet starts two single-slot workers and a coordinator using
// them, and waits until the coordinator reports both workers live.
func startFleet(ctx context.Context, bin string) (*fleet, error) {
	f := &fleet{scraper: &http.Client{Timeout: 10 * time.Second}}
	var urls []string
	for range 2 {
		w, err := startDaemon(ctx, bin, "roofworkerd", "-parallelism", "1")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
		urls = append(urls, w.url)
	}
	c, err := startDaemon(ctx, bin, "roofserved",
		"-workers", strings.Join(urls, ","), "-max-jobs", "2", "-queue-depth", "8")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = c
	deadline := time.Now().Add(20 * time.Second)
	for {
		s, err := f.scrape(ctx, c.url)
		if err == nil && s.sum("roofdist_workers", `state="live"`) == 2 {
			return f, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			f.stop()
			return nil, fmt.Errorf("workers not live within 20s (last scrape error: %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop stops every daemon of the fleet and waits for each to exit.
func (f *fleet) stop() {
	if f.coord != nil {
		f.coord.stop()
	}
	for _, w := range f.workers {
		w.stop()
	}
	f.scraper.CloseIdleConnections()
}

// peakRSSMiB sums the peak RSS of the fleet's processes; valid after stop.
func (f *fleet) peakRSSMiB() float64 {
	kib := f.coord.rssKiB
	for _, w := range f.workers {
		kib += w.rssKiB
	}
	return float64(kib) / 1024
}

// metricsSet is one /metrics scrape: series ("name" or "name{labels}")
// to value.
type metricsSet map[string]float64

func (f *fleet) scrape(ctx context.Context, base string) (metricsSet, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.scraper.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// fleetScrape is one scrape of the coordinator and both workers.
type fleetScrape struct {
	coord   metricsSet
	workers []metricsSet
}

func (f *fleet) scrapeAll(ctx context.Context) (fleetScrape, error) {
	var fs fleetScrape
	var err error
	if fs.coord, err = f.scrape(ctx, f.coord.url); err != nil {
		return fs, err
	}
	for _, w := range f.workers {
		s, err := f.scrape(ctx, w.url)
		if err != nil {
			return fs, err
		}
		fs.workers = append(fs.workers, s)
	}
	return fs, nil
}

// parseMetrics reads the Prometheus text exposition.
func parseMetrics(r io.Reader) (metricsSet, error) {
	out := metricsSet{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the metric name whose labels contain all the
// given label matchers ("" matches every series).
func (s metricsSet) sum(name string, labels ...string) float64 {
	t := 0.0
	for series, v := range s {
		n, l, _ := strings.Cut(series, "{")
		if n != name {
			continue
		}
		ok := true
		for _, want := range labels {
			if !strings.Contains(l, want) {
				ok = false
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta is after minus before for the metric, summed over processes.
func delta(before, after []metricsSet, name string, labels ...string) float64 {
	t := 0.0
	for i := range after {
		t += after[i].sum(name, labels...) - before[i].sum(name, labels...)
	}
	return t
}
