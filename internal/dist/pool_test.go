package dist

import (
	"fmt"
	"testing"

	distv1 "rooftune/dist/v1"
)

// livePool builds a pool over urls with every worker marked live, as a
// successful probe sweep would leave it.
func livePool(urls ...string) *Pool {
	p := NewPool(urls, 0, nil)
	for _, w := range p.workers {
		w.state = workerLive
	}
	return p
}

// TestPoolPickPlacesByFingerprint: placement is a pure function of the
// node fingerprint and the URL set — two pools (two coordinators, or
// one before and after a restart) over the same workers, enrolled in
// different orders, place every node on the same worker — and dead or
// excluded workers are skipped until the fleet is exhausted.
func TestPoolPickPlacesByFingerprint(t *testing.T) {
	urls := []string{"http://w1:1", "http://w2:2", "http://w3:3"}
	a := livePool(urls...)
	b := livePool(urls[2], urls[0], urls[1])
	placed := make(map[string]int)
	for i := 0; i < 64; i++ {
		fp := distv1.NodeFingerprint("campaign", fmt.Sprintf("node/%d", i), 0)
		ua, ok := a.pick(fp, nil)
		if !ok {
			t.Fatalf("%s: live fleet placed nothing", fp)
		}
		if ub, _ := b.pick(fp, nil); ub != ua {
			t.Fatalf("%s: pools over the same URLs disagree: %s vs %s", fp, ua, ub)
		}
		placed[ua]++
	}
	if len(placed) != len(urls) {
		t.Fatalf("64 nodes landed on %d of %d workers: %v", len(placed), len(urls), placed)
	}

	fp := distv1.NodeFingerprint("campaign", "node/0", 0)
	first, _ := a.pick(fp, nil)
	second, ok := a.pick(fp, map[string]bool{first: true})
	if !ok || second == first {
		t.Fatalf("excluding %s: picked %s (ok=%v)", first, second, ok)
	}
	a.markDead(first)
	if got, _ := a.pick(fp, nil); got != second {
		t.Fatalf("with %s dead: picked %s, want the next-ranked %s", first, got, second)
	}
	if got, ok := a.pick(fp, map[string]bool{second: true}); !ok || got == first || got == second {
		t.Fatalf("with %s dead and %s excluded: picked %s (ok=%v)", first, second, got, ok)
	}
	if got, ok := a.pick(fp, map[string]bool{urls[0]: true, urls[1]: true, urls[2]: true}); ok {
		t.Fatalf("exhausted fleet picked %s", got)
	}
}
