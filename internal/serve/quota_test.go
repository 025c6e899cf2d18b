package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sealEntry plants a valid entry and seals it into the index with a
// pinned eviction timestamp.
func sealEntry(t *testing.T, c *Cache, key string, last int64) int64 {
	t.Helper()
	writeValidEntry(t, c, key, `{"scenario":"x","series":"cell","cell":0}`)
	if _, _, _, ok := c.Lookup(key); !ok {
		t.Fatalf("planted entry %s does not validate", key)
	}
	c.mu.Lock()
	ent := c.index[key]
	ent.LastValidated = last
	c.index[key] = ent
	size := ent.Size
	c.mu.Unlock()
	return size
}

func TestCacheQuotaEvictsLeastRecentlyValidated(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{
		sealEntry(t, c, "aaaa", 1),
		sealEntry(t, c, "bbbb", 2),
		sealEntry(t, c, "cccc", 3),
	}
	one := sizes[0]
	if c.Size() != 3*one {
		t.Fatalf("cache size %d, want %d", c.Size(), 3*one)
	}

	// Under quota: nothing to do.
	if n, _ := c.EvictOver(3*one, nil); n != 0 {
		t.Fatalf("under-quota eviction removed %d entries", n)
	}
	// Over quota by one entry: the least-recently-validated goes.
	n, freed := c.EvictOver(2*one, nil)
	if n != 1 || freed != one {
		t.Fatalf("evicted %d entries (%d bytes), want 1 (%d)", n, freed, one)
	}
	if _, err := os.Stat(c.EntryPath("aaaa")); !os.IsNotExist(err) {
		t.Fatal("oldest entry file survived eviction")
	}
	if _, _, _, ok := c.Lookup("aaaa"); ok {
		t.Fatal("evicted entry still served")
	}
	for _, key := range []string{"bbbb", "cccc"} {
		if _, _, _, ok := c.Lookup(key); !ok {
			t.Fatalf("entry %s lost collaterally", key)
		}
	}
	// The persisted index must agree with the directory.
	idx, err := os.ReadFile(c.indexPath())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(idx, []byte("aaaa")) {
		t.Fatalf("evicted key still indexed:\n%s", idx)
	}

	// Pinned keys are skipped even when they are the oldest.
	n, _ = c.EvictOver(one, map[string]bool{"bbbb": true})
	if n != 1 {
		t.Fatalf("pinned eviction removed %d entries, want 1", n)
	}
	if _, _, _, ok := c.Lookup("bbbb"); !ok {
		t.Fatal("pinned entry evicted")
	}
	if _, _, _, ok := c.Lookup("cccc"); ok {
		t.Fatal("unpinned entry survived over the pinned one")
	}
}

// TestCacheQuotaRevalidatesBeforeEvicting: a candidate that fails
// revalidation drops out of the index (Revalidate already pruned it)
// without counting as an eviction, and healthy entries are preserved
// when the rot alone brings the total under quota.
func TestCacheQuotaRevalidatesBeforeEvicting(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	one := sealEntry(t, c, "aaaa", 1)
	sealEntry(t, c, "bbbb", 2)

	// Corrupt the oldest entry (size-changing, so any path catches it).
	if err := os.Truncate(c.EntryPath("aaaa"), one-3); err != nil {
		t.Fatal(err)
	}
	n, freed := c.EvictOver(one, nil)
	if n != 0 || freed != 0 {
		t.Fatalf("rotted candidate counted as eviction: n=%d freed=%d", n, freed)
	}
	if _, _, _, ok := c.Lookup("bbbb"); !ok {
		t.Fatal("healthy entry evicted despite the rotted one covering the quota")
	}
	idx, err := os.ReadFile(c.indexPath())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(idx, []byte("aaaa")) {
		t.Fatalf("rotted key still indexed:\n%s", idx)
	}
}

// TestServerQuotaPinsLiveJobs: enforceQuota must never evict an entry
// whose job is resident — it backs the job's live record stream — while
// a fresh server (empty job table) trims the same cache to quota.
func TestServerQuotaPinsLiveJobs(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir, Options{CacheMaxBytes: 1})
	sr := postJob(t, ts, `{"experiment":"servetoy","seed":51}`)
	want, _ := getRecords(t, ts, sr.ID, "")

	s.enforceQuota()
	if _, _, _, ok := s.cache.Lookup(sr.ID); !ok {
		t.Fatal("quota evicted a resident job's entry")
	}
	if got, _ := getRecords(t, ts, sr.ID, ""); !bytes.Equal(got, want) {
		t.Fatal("stream changed after enforceQuota")
	}

	// A fresh server over the same cache holds no jobs: the quota now
	// applies and the entry goes.
	s2, _ := newTestServer(t, dir, Options{CacheMaxBytes: 1})
	s2.enforceQuota()
	if _, _, _, ok := s2.cache.Lookup(sr.ID); ok {
		t.Fatal("unpinned entry survived a 1-byte quota")
	}
}

// TestServerQuotaJanitorRuns: CacheMaxBytes alone (no JobTTL) must
// start the janitor and bring an over-quota cache down without any
// explicit enforceQuota call.
func TestServerQuotaJanitorRuns(t *testing.T) {
	dir := t.TempDir()
	// Seed the cache with an entry from a first server, then shut it
	// down so nothing pins the key.
	s, ts := newTestServer(t, dir, Options{})
	sr := postJob(t, ts, `{"experiment":"servetoy","seed":53}`)
	getRecords(t, ts, sr.ID, "")
	_ = s

	s2, _ := newTestServer(t, dir, Options{CacheMaxBytes: 1})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, _, ok := s2.cache.Lookup(sr.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never enforced the cache quota")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCacheHitJobHasSummary: a job born from a cache hit never ran a
// reduction, but its status must show the same summary a computed job
// reports — replayed from the entry's records.
func TestCacheHitJobHasSummary(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, dir, Options{})
	sr := postJob(t, ts, `{"experiment":"servetoy","seed":57}`)
	getRecords(t, ts, sr.ID, "")
	computed := getStatus(t, ts, sr.ID).Summary
	if !strings.Contains(computed, "servetoy: sum=") {
		t.Fatalf("computed summary missing: %q", computed)
	}

	// A fresh server over the same cache: the submission is a pure hit.
	_, ts2 := newTestServer(t, dir, Options{})
	sr2 := postJob(t, ts2, `{"experiment":"servetoy","seed":57}`)
	if sr2.Created || sr2.State != stateDone {
		t.Fatalf("restart missed the cache: %+v", sr2)
	}
	st := getStatus(t, ts2, sr2.ID)
	if !st.CacheHit {
		t.Fatalf("not a cache hit: %+v", st)
	}
	if st.Summary != computed {
		t.Fatalf("cache-hit summary %q differs from computed %q", st.Summary, computed)
	}
}

// readIndex parses the persisted index.json.
func readIndex(t *testing.T, c *Cache) (map[string]indexEntry, os.FileInfo) {
	t.Helper()
	b, err := os.ReadFile(c.indexPath())
	if err != nil {
		t.Fatal(err)
	}
	var idx map[string]indexEntry
	if err := json.Unmarshal(b, &idx); err != nil {
		t.Fatalf("index.json: %v\n%s", err, b)
	}
	fi, err := os.Stat(c.indexPath())
	if err != nil {
		t.Fatal(err)
	}
	return idx, fi
}

// TestCacheTouchIsNotADiskWrite: a fast-path hit refreshes the entry's
// eviction timestamp in memory and leaves index.json alone; the fresh
// timestamp reaches the file with the next seal and at Shutdown, so a
// clean stop does not lose the eviction order.
func TestCacheTouchIsNotADiskWrite(t *testing.T) {
	inMemory := func(c *Cache, key string) int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.index[key].LastValidated
	}

	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sealEntry(t, c, "aaaa", 1)
	c.Flush()
	_, before := readIndex(t, c)
	if _, _, _, ok := c.Lookup("aaaa"); !ok {
		t.Fatal("sealed entry not served")
	}
	touched := inMemory(c, "aaaa")
	idx, after := readIndex(t, c)
	// Every index write renames a new file into place, so the same file
	// means no write happened.
	if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("a fast-path lookup rewrote index.json")
	}
	if touched <= 1 || idx["aaaa"].LastValidated != 1 {
		t.Fatalf("touch: in memory %d, on disk %d; want a fresh timestamp in memory only", touched, idx["aaaa"].LastValidated)
	}
	sealEntry(t, c, "bbbb", 2) // the next seal carries the touch out
	if idx, _ := readIndex(t, c); idx["aaaa"].LastValidated != touched {
		t.Fatalf("after the next seal index.json holds %d, want %d", idx["aaaa"].LastValidated, touched)
	}

	s, ts := newTestServer(t, t.TempDir(), Options{})
	const body = `{"experiment":"servetoy","seed":59}`
	sr := postJob(t, ts, body)
	getRecords(t, ts, sr.ID, "")
	_, before = readIndex(t, s.cache)
	postJob(t, ts, body) // warm: a fast-path lookup
	touched = inMemory(s.cache, sr.ID)
	idx, after = readIndex(t, s.cache)
	if !os.SameFile(before, after) || idx[sr.ID].LastValidated >= touched {
		t.Fatalf("warm submit rewrote index.json (on disk %d, in memory %d)", idx[sr.ID].LastValidated, touched)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if idx, _ := readIndex(t, s.cache); idx[sr.ID].LastValidated != touched {
		t.Fatalf("after Shutdown index.json holds %d, want %d", idx[sr.ID].LastValidated, touched)
	}
}

// TestIndexEncodingMatchesMarshalIndent: the streamed index writer is a
// hand-rolled encoder; encoding/json over the same map is its reference,
// byte for byte — including a never-validated entry (the timestamp is
// omitted) and a key that needs escaping.
func TestIndexEncodingMatchesMarshalIndent(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		want, err := json.MarshalIndent(c.index, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		c.Flush()
		got, err := os.ReadFile(c.indexPath())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("index.json:\n%s\nwant:\n%s", got, want)
		}
	}
	check() // empty
	c.index["beef"] = indexEntry{Records: 3, SHA256: "00ff", Length: 120, Size: 200, ModTimeNS: 1_700_000_000_123_456_789, LastValidated: 42}
	check()
	c.index["0a"] = indexEntry{Records: 1, SHA256: "ab", Length: 1, Size: 2, ModTimeNS: -5}
	c.index["we\"ird <key>\né"] = indexEntry{Records: 10234, SHA256: "c0ffee", Length: 1 << 20, Size: 1<<20 + 90, LastValidated: 7}
	check()
	c2, err := NewCache(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c2.index, c.index) {
		t.Fatalf("reloaded index differs:\n%+v\nwant\n%+v", c2.index, c.index)
	}
}
