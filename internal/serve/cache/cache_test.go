package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func key(seed int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", seed)))
	return hex.EncodeToString(sum[:])
}

// mustPut stores val and fails the test on error or rejection.
func mustPut(t *testing.T, c *Cache, k string, val []byte) {
	t.Helper()
	stored, err := c.Put(k, val, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !stored {
		t.Fatalf("Put(%s) rejected unexpectedly", k)
	}
}

func TestHitMissPromote(t *testing.T) {
	c, err := New(Config{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	mustPut(t, c, key(1), []byte("one"))
	mustPut(t, c, key(2), []byte("two"))
	if got, ok := c.Get(key(1)); !ok || string(got) != "one" {
		t.Fatalf("Get(1) = %q, %v", got, ok)
	}
	// 1 was just used, so inserting 3 must evict 2, not 1.
	mustPut(t, c, key(3), []byte("three"))
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("LRU evicted the recently used entry instead of the stale one")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("promoted entry was evicted")
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", s)
	}
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses", s)
	}
}

func TestPutValidation(t *testing.T) {
	c, err := New(Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("../../etc/passwd", []byte("x"), time.Hour); err == nil {
		t.Fatal("malformed key accepted")
	}
	if _, err := c.Put("ABC", []byte("x"), time.Hour); err == nil {
		t.Fatal("short key accepted")
	}
	if _, err := c.Put(key(1), nil, time.Hour); err == nil {
		t.Fatal("empty value accepted")
	}
}

func TestOverwriteRefreshes(t *testing.T) {
	c, err := New(Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c, key(1), []byte("v1"))
	mustPut(t, c, key(1), []byte("v2"))
	if got, _ := c.Get(key(1)); string(got) != "v2" {
		t.Fatalf("Get = %q after overwrite", got)
	}
	if c.Stats().Entries != 1 {
		t.Fatalf("entries = %d, want 1", c.Stats().Entries)
	}
}

func TestMinCostAdmission(t *testing.T) {
	c, err := New(Config{MaxEntries: 4, MinCost: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stored, err := c.Put(key(1), []byte("cheap"), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stored {
		t.Fatal("sub-floor result admitted")
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("rejected result was resident")
	}
	stored, err = c.Put(key(2), []byte("costly"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !stored {
		t.Fatal("above-floor result rejected")
	}
	s := c.Stats()
	if s.Rejected != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 rejection / 1 entry", s)
	}
}

func TestTTLExpiry(t *testing.T) {
	c, err := New(Config{MaxEntries: 4, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// A controllable clock: entries written at t0 expire at t0+1m.
	t0 := time.Unix(1_700_000_000, 0)
	clock := t0
	c.now = func() time.Time { return clock }
	mustPut(t, c, key(1), []byte("fresh"))

	clock = t0.Add(30 * time.Second)
	if got, ok := c.Get(key(1)); !ok || string(got) != "fresh" {
		t.Fatalf("entry expired early: %q, %v", got, ok)
	}

	// Overwriting refreshes the deadline.
	mustPut(t, c, key(1), []byte("refreshed"))
	clock = t0.Add(75 * time.Second) // 45s after the refresh
	if got, ok := c.Get(key(1)); !ok || string(got) != "refreshed" {
		t.Fatalf("refreshed entry expired on the original deadline: %q, %v", got, ok)
	}

	clock = t0.Add(3 * time.Minute)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("expired entry served")
	}
	s := c.Stats()
	if s.Expired != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 expiry / 0 entries", s)
	}
	// The expiry also counts as a miss: the caller will recompute.
	if s.Misses != 1 {
		t.Fatalf("stats = %+v, want the expiry counted as a miss", s)
	}
}

func TestDirPersistence(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{MaxEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c, key(1), []byte(`{"x":1}`))
	mustPut(t, c, key(2), []byte(`{"x":2}`))
	// A restarted daemon reloads both entries bit for bit.
	re, err := New(Config{MaxEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := re.Get(key(1)); !ok || string(got) != `{"x":1}` {
		t.Fatalf("reloaded Get(1) = %q, %v", got, ok)
	}
	if got, ok := re.Get(key(2)); !ok || string(got) != `{"x":2}` {
		t.Fatalf("reloaded Get(2) = %q, %v", got, ok)
	}
	if re.Stats().Evictions != 0 {
		t.Fatalf("reload counted evictions: %+v", re.Stats())
	}
}

func TestDirReloadHonorsTTL(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{MaxEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c, key(1), []byte("stale"))
	mustPut(t, c, key(2), []byte("fresh"))
	// Age entry 1 past the reload TTL via its file mtime — on disk the
	// mtime IS the entry's write time.
	past := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(filepath.Join(dir, key(1)+fileSuffix), past, past); err != nil {
		t.Fatal(err)
	}
	re, err := New(Config{MaxEntries: 8, Dir: dir, TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Get(key(1)); ok {
		t.Fatal("TTL-expired disk entry served after restart")
	}
	if got, ok := re.Get(key(2)); !ok || string(got) != "fresh" {
		t.Fatalf("fresh entry lost in reload: %q, %v", got, ok)
	}
	if _, err := os.Stat(filepath.Join(dir, key(1)+fileSuffix)); !os.IsNotExist(err) {
		t.Fatalf("expired file not cleaned up: %v", err)
	}
}

func TestDirReloadKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{MaxEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustPut(t, c, key(i), []byte(fmt.Sprintf("v%d", i)))
		// Distinct mod times so age ordering is unambiguous on coarse
		// filesystem clocks.
		past := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, key(i)+fileSuffix), past, past); err != nil {
			t.Fatal(err)
		}
	}
	// Reload into a bound of 2: only the two newest survive, and the
	// directory is trimmed to match.
	re, err := New(Config{MaxEntries: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if re.Stats().Entries != 2 {
		t.Fatalf("entries = %d, want 2", re.Stats().Entries)
	}
	for i := 0; i < 2; i++ {
		if _, ok := re.Get(key(i)); ok {
			t.Fatalf("old entry %d survived a bounded reload", i)
		}
	}
	for i := 2; i < 4; i++ {
		if _, ok := re.Get(key(i)); !ok {
			t.Fatalf("new entry %d lost in bounded reload", i)
		}
	}
}

func TestDirIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "nothex.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{MaxEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Entries != 0 {
		t.Fatalf("foreign files loaded: entries = %d", c.Stats().Entries)
	}
	if _, err := os.Stat(filepath.Join(dir, "README.txt")); err != nil {
		t.Fatalf("foreign file touched: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		//rooflint:allow nogoroutine -- test stressor; joined by wg.Wait below
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				k := key(j % 24)
				if j%3 == 0 {
					_, _ = c.Put(k, []byte(fmt.Sprintf("w%d", i)), time.Hour)
				} else {
					_, _ = c.Get(k)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Stats().Entries > 16 {
		t.Fatalf("bound exceeded: entries = %d", c.Stats().Entries)
	}
}
