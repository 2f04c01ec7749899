// Package cache is the serving tier's content-addressed result store: a
// size-bounded LRU mapping session fingerprints (hex SHA-256 content
// addresses) to serialized Result bytes, optionally persisted to a
// directory so a restarted daemon keeps its warm entries.
//
// Values are stored and returned as opaque bytes on purpose. The serve
// layer answers a cache hit with the stored bytes verbatim — no
// re-marshalling — which is what makes repeated responses byte-identical,
// and the key being a content address means a hit can only ever be
// returned to a request that would have re-measured exactly the same
// campaign.
//
// Two policies refine the plain LRU for production traffic. A TTL bounds
// every entry's lifetime: expired entries answer as misses and are
// dropped lazily, and because an entry's age on disk is its file's
// modification time, persisted entries keep honoring the TTL across a
// daemon restart without any sidecar metadata (the value bytes stay raw,
// preserving byte-identity). An admission gate refuses to store results
// whose measured cost fell under a configured floor — a campaign cheaper
// to recompute than to keep is not worth an eviction slot.
package cache

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"
)

// keyPattern is the only accepted key shape: a lowercase hex SHA-256.
// Keys double as file names under the persistence directory, so
// anything else is rejected before it can traverse a path.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

const fileSuffix = ".json"

// Config bounds and parameterizes a cache.
type Config struct {
	// MaxEntries bounds the resident entries (<=0: the default 256).
	MaxEntries int
	// Dir, when non-empty, persists entries as files so a restarted
	// daemon keeps its warm cache.
	Dir string
	// TTL bounds every entry's lifetime (<=0: entries never expire). On
	// disk an entry's age runs from its file's modification time, so the
	// TTL keeps applying across a reload.
	TTL time.Duration
	// MinCost is the admission floor: a Put whose cost is below it is
	// not stored (<=0: everything is admitted).
	MinCost time.Duration
}

// Stats is a point-in-time cache counter snapshot.
type Stats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Expired counts lookups that found only a TTL-expired entry (each
	// also counts as a miss).
	Expired uint64 `json:"expired"`
	// Rejected counts Puts refused by the MinCost admission gate.
	Rejected uint64 `json:"rejected"`
}

type entry struct {
	key string
	val []byte
	// expires is the entry's TTL deadline; zero means never.
	expires time.Time
}

// Cache is a concurrency-safe LRU over fingerprint-keyed byte values.
type Cache struct {
	mu      sync.Mutex
	cfg     Config
	now     func() time.Time
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, evictions uint64
	expired, rejected       uint64
}

// New builds a cache. If cfg.Dir is non-empty it is created if needed
// and every valid, unexpired persisted entry in it is loaded, oldest
// first, so the most recently written entries survive if the directory
// holds more than the bound; expired files are removed rather than
// loaded.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 256
	}
	c := &Cache{
		cfg:     cfg,
		now:     time.Now,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
	if cfg.Dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: create dir: %w", err)
	}
	names, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("cache: read dir: %w", err)
	}
	type onDisk struct {
		key  string
		path string
		mod  time.Time
	}
	var found []onDisk
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if filepath.Ext(name) != fileSuffix {
			continue
		}
		key := name[:len(name)-len(fileSuffix)]
		if !keyPattern.MatchString(key) {
			continue // not ours; leave foreign files alone
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, onDisk{key: key, path: filepath.Join(cfg.Dir, name), mod: info.ModTime()})
	}
	// Oldest first: inserting in age order makes the newest entries the
	// most recently used, so an over-full directory evicts its oldest.
	sort.Slice(found, func(i, j int) bool {
		if !found[i].mod.Equal(found[j].mod) {
			return found[i].mod.Before(found[j].mod)
		}
		return found[i].key < found[j].key
	})
	now := c.now()
	for _, f := range found {
		if cfg.TTL > 0 && !f.mod.Add(cfg.TTL).After(now) {
			// Stale on disk: a restarted daemon must not resurrect what a
			// running one would no longer serve.
			_ = os.Remove(f.path)
			continue
		}
		val, err := os.ReadFile(f.path)
		if err != nil || len(val) == 0 {
			continue
		}
		c.insert(f.key, val, c.deadline(f.mod))
	}
	// Loading is a restore, not traffic: zero the eviction counter so
	// Stats reflect the daemon's own lifetime.
	c.evictions = 0
	return c, nil
}

// deadline converts a write time into the entry's expiry (zero when the
// cache has no TTL).
func (c *Cache) deadline(written time.Time) time.Time {
	if c.cfg.TTL <= 0 {
		return time.Time{}
	}
	return written.Add(c.cfg.TTL)
}

// Get returns the stored bytes for key and whether it was present and
// fresh, promoting a hit to most recently used. A TTL-expired entry is
// dropped (memory and disk) and answers as a miss.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*entry)
	if !e.expires.IsZero() && !c.now().Before(e.expires) {
		c.order.Remove(el)
		delete(c.entries, key)
		if c.cfg.Dir != "" {
			_ = os.Remove(filepath.Join(c.cfg.Dir, key+fileSuffix))
		}
		c.expired++
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return e.val, true
}

// Put stores val under key, evicting the least recently used entries
// beyond the bound. cost is what producing val took; a cost under the
// configured MinCost floor is refused (stored=false, nil error) — the
// run succeeded, the result just is not worth caching. Malformed keys
// and empty values are errors — an empty cached response would be
// served verbatim forever.
func (c *Cache) Put(key string, val []byte, cost time.Duration) (stored bool, err error) {
	if !keyPattern.MatchString(key) {
		return false, fmt.Errorf("cache: malformed key %q: want lowercase hex sha256", key)
	}
	if len(val) == 0 {
		return false, fmt.Errorf("cache: refusing to store an empty value under %s", key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.MinCost > 0 && cost < c.cfg.MinCost {
		c.rejected++
		return false, nil
	}
	c.insert(key, val, c.deadline(c.now()))
	if c.cfg.Dir != "" {
		// Best effort and atomic: a torn write must never surface as a
		// truncated cached Result after a restart.
		tmp := filepath.Join(c.cfg.Dir, key+".tmp")
		if err := os.WriteFile(tmp, val, 0o644); err == nil {
			_ = os.Rename(tmp, filepath.Join(c.cfg.Dir, key+fileSuffix))
		}
	}
	return true, nil
}

// insert adds or refreshes an entry and trims to the bound. Callers hold
// the lock (or, during New, have exclusive ownership).
func (c *Cache) insert(key string, val []byte, expires time.Time) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		e.val = val
		e.expires = expires
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, val: val, expires: expires})
	for c.order.Len() > c.cfg.MaxEntries {
		oldest := c.order.Back()
		e := oldest.Value.(*entry)
		c.order.Remove(oldest)
		delete(c.entries, e.key)
		c.evictions++
		if c.cfg.Dir != "" {
			_ = os.Remove(filepath.Join(c.cfg.Dir, e.key+fileSuffix))
		}
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.order.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Expired:   c.expired,
		Rejected:  c.rejected,
	}
}
