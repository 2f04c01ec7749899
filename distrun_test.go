package rooftune

import (
	"bytes"
	"testing"

	distv1 "rooftune/dist/v1"
	"rooftune/internal/bench"
	"rooftune/internal/sweep"
)

// fuzzOutcomeSession is the campaign FuzzOutcomeFromWire decodes
// outcomes against: the serving fleet's shape, every workload with the
// TRIAD levels chained L1 to DRAM, so every node kind and winner config
// variant is on the plan.
func fuzzOutcomeSession() (*Session, error) {
	return New(
		WithSystem("2650v4"),
		WithWorkloads("dgemm", "triad", "spmv", "stencil"),
		WithTriadLevels("L1", "L2", "L3", "DRAM"),
		WithSweepChaining(true),
	)
}

// FuzzOutcomeFromWire drives arbitrary worker response bodies through
// the coordinator's decode path: every body distv1.ParseNodeOutcome
// accepts (the decoder dist.Coordinator.postNode calls) is rebuilt by
// outcomeFromWire against the plan node the outcome names (or, for an
// unknown name, the first node, which must refuse it). No input may
// panic, and every winner outcomeFromWire accepts must re-marshal
// through bench.MarshalConfig, as Result assembly will. The seed
// corpus, real worker outcomes plus malformed variants, lives in
// testdata/fuzz/FuzzOutcomeFromWire and also runs in every plain
// `go test`.
func FuzzOutcomeFromWire(f *testing.F) {
	sess, err := fuzzOutcomeSession()
	if err != nil {
		f.Fatal(err)
	}
	target, _ := sess.target()
	p, err := sess.plan(target)
	if err != nil {
		f.Fatal(err)
	}
	byID := make(map[string]sweep.Node, len(p.nodes))
	for _, n := range p.nodes {
		byID[n.ID] = n
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		no, err := distv1.ParseNodeOutcome(bytes.NewReader(body))
		if err != nil {
			return
		}
		n, ok := byID[no.NodeID]
		if !ok {
			n = p.nodes[0]
		}
		out, err := outcomeFromWire(n, &no)
		if err != nil {
			return
		}
		if !ok {
			t.Fatalf("node %s accepted an outcome for unknown node %q", n.ID, no.NodeID)
		}
		if out.ID != n.ID || out.Result == nil || out.Result.Best == nil {
			t.Fatalf("accepted outcome rebuilt without its node or winner: %+v", out)
		}
		if out.Best == nil {
			return
		}
		if out.Result.Best.Config != out.Best {
			t.Fatalf("winner config %v differs from the best outcome's %v", out.Best, out.Result.Best.Config)
		}
		if _, err := bench.MarshalConfig(out.Best); err != nil {
			t.Fatalf("accepted winner %#v does not re-marshal: %v", out.Best, err)
		}
	})
}
