package serve

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments/exp"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/scenario/sink"
)

// keyVersion guards the canonical-form layout: bumping it invalidates
// every cached entry (old keys simply never match again).
const keyVersion = 1

// canonicalJob is the hashed canonical form of a job. Only fields that
// determine the output bytes participate: the experiment identity, the
// seed and the scale. Execution details (shard count, worker pool) are
// deliberately excluded — the determinism contract makes the record
// stream a pure function of this struct, which is exactly what lets one
// cache entry serve every execution plan.
type canonicalJob struct {
	Version int             `json:"v"`
	Kind    string          `json:"kind"` // "experiment" or "scenario"
	Name    string          `json:"name,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	Seed    int64           `json:"seed"`
	Scale   string          `json:"scale"`
}

// JobKey derives the content-address of a job's result: the SHA-256 of
// the canonical form of what dist.Job.Target resolves it to. Spellings that produce identical bytes map to one
// key — an alias and its canonical experiment name, a registered
// scenario name and the identical inline spec — so the cache, the
// single-flight table and the job API all coalesce them.
func JobKey(job dist.Job) (string, error) {
	if _, ok := exp.NamedScale(job.Scale); !ok {
		return "", fmt.Errorf("serve: unknown scale %q (want quick or paper)", job.Scale)
	}
	e, spec, err := job.Target()
	if err != nil {
		return "", err
	}
	canon := canonicalJob{Version: keyVersion, Kind: "experiment", Seed: job.Seed, Scale: job.Scale}
	if e != nil {
		canon.Name = e.Name()
	} else {
		canon.Kind, canon.Spec = "scenario", mustCompactSpec(spec)
	}
	raw, err := json.Marshal(canon)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// mustCompactSpec renders a parsed spec in its canonical (compact,
// field-ordered) byte form. Specs marshal by construction, so a failure
// here is a programming error.
func mustCompactSpec(spec *scenario.Spec) json.RawMessage {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("serve: canonicalizing spec: %v", err))
	}
	return b
}

// Cache is the content-addressed on-disk result store: one record log
// (sink.Log) per job, `<key>.jsonl` once sealed. An in-flight job
// accumulates in the log's part file, flushed at record granularity, so
// a crash at any point leaves either a valid entry or a resumable
// prefix — never a corrupt entry that Lookup would serve.
//
// Alongside the entries the cache keeps an advisory index
// (`index.json`) of validated metadata — record count, stream SHA-256,
// record-region length, plus a (size, mtime) fingerprint — so repeated
// Lookups of an entry this process has already validated cost a stat
// instead of a full rehash. The index never substitutes for
// validation: the first Lookup of a key in a process always rehashes
// the entry (catching offline corruption the fingerprint can't), and
// any fingerprint mismatch falls back to the same full validation.
type Cache struct {
	dir string
	log *slog.Logger

	mu        sync.Mutex
	index     map[string]indexEntry
	validated map[string]bool // keys fully validated by this process
}

// indexEntry is one validated entry's metadata in index.json.
type indexEntry struct {
	Records   int    `json:"records"`
	SHA256    string `json:"sha256"`
	Length    int64  `json:"length"` // record-region bytes (marker excluded)
	Size      int64  `json:"size"`   // whole-file fingerprint
	ModTimeNS int64  `json:"mtime_ns"`
	// LastValidated orders entries for quota eviction: it is refreshed
	// every time the entry seals or a lookup serves it, so the eviction
	// janitor drops the least-recently-used entries first.
	LastValidated int64 `json:"last_validated_ns,omitempty"`
}

// NewCache opens (creating if needed) the cache directory. A readable
// index.json is loaded; a missing or corrupt one is ignored — the index
// is advisory and rebuilds itself as entries are validated.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, err
	}
	c := &Cache{dir: dir, log: obs.Discard(), index: map[string]indexEntry{}, validated: map[string]bool{}}
	if b, err := os.ReadFile(c.indexPath()); err == nil {
		var idx map[string]indexEntry
		if json.Unmarshal(b, &idx) == nil && idx != nil {
			c.index = idx
		}
	}
	c.mu.Lock()
	c.updateGaugesLocked()
	c.mu.Unlock()
	return c, nil
}

// SetLogger installs the structured event logger (eviction events and
// the like). Nil discards. Call before the cache is shared.
func (c *Cache) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.Discard()
	}
	c.log = l
}

// updateGaugesLocked refreshes the cache size gauges from the index.
// Called with c.mu held.
func (c *Cache) updateGaugesLocked() {
	var total int64
	for _, ent := range c.index {
		total += ent.Size
	}
	metCacheBytes.Set(float64(total))
	metCacheEntries.Set(float64(len(c.index)))
}

func (c *Cache) indexPath() string { return filepath.Join(c.dir, "index.json") }

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// EntryPath is the finished entry for a key.
func (c *Cache) EntryPath(key string) string {
	return filepath.Join(c.dir, key+".jsonl")
}

// RunDir is the coordinator run directory a sharded execution of key
// uses for its shard checkpoints.
func (c *Cache) RunDir(key string) string {
	return filepath.Join(c.dir, "runs", key)
}

// Lookup validates the entry for key against its completion marker and
// returns its path, record count and record-region byte length. A
// missing, truncated, bit-flipped or marker-less entry reports ok false
// — it is never served, the job is recomputed.
//
// An entry this process has already fully validated is served from the
// index when its (size, mtime) fingerprint still matches — a stat
// instead of a rehash, which is what keeps warm resubmissions of large
// entries cheap. Any other state takes the full validation path.
func (c *Cache) Lookup(key string) (path string, records int, dataBytes int64, ok bool) {
	path = c.EntryPath(key)
	c.mu.Lock()
	ent, have := c.index[key]
	valid := c.validated[key]
	c.mu.Unlock()
	if have && valid {
		if fi, err := os.Stat(path); err == nil && fi.Size() == ent.Size && fi.ModTime().UnixNano() == ent.ModTimeNS {
			c.touch(key)
			metCacheHits.Inc()
			return path, ent.Records, ent.Length, true
		}
	}
	path, records, dataBytes, ok = c.Revalidate(key)
	if ok {
		metCacheHits.Inc()
	} else {
		metCacheMisses.Inc()
	}
	return path, records, dataBytes, ok
}

// Revalidate is Lookup without the index fast path: a full rehash of
// the entry against its completion marker, refreshing (or dropping)
// the index entry with the outcome. Callers for whom a false positive
// is costlier than the rehash — the job-table janitor, whose eviction
// must never turn a warm key into a recomputation — use it directly.
func (c *Cache) Revalidate(key string) (path string, records int, dataBytes int64, ok bool) {
	path = c.EntryPath(key)
	metCacheRevalidations.Inc()
	records, dataBytes, sum, ok := sink.ValidateLog(path)
	if !ok {
		c.mu.Lock()
		if _, had := c.index[key]; had {
			delete(c.index, key)
			c.persistLocked()
			c.updateGaugesLocked()
		}
		delete(c.validated, key)
		c.mu.Unlock()
		return "", 0, 0, false
	}
	c.seal(key, records, dataBytes, sum)
	return path, records, dataBytes, true
}

// Seal records a just-sealed log in the index. The log already holds its
// record count, record-region length and stream hash — the values its
// completion marker was built from — so sealing costs one stat, never a
// rehash.
func (c *Cache) Seal(key string, lg *sink.Log) {
	c.seal(key, lg.Records(), lg.Boundary(), hex.EncodeToString(lg.Sum()))
}

func (c *Cache) seal(key string, records int, dataBytes int64, sum string) {
	fi, err := os.Stat(c.EntryPath(key))
	if err != nil {
		return
	}
	c.mu.Lock()
	c.index[key] = indexEntry{
		Records:       records,
		SHA256:        sum,
		Length:        dataBytes,
		Size:          fi.Size(),
		ModTimeNS:     fi.ModTime().UnixNano(),
		LastValidated: time.Now().UnixNano(),
	}
	c.validated[key] = true
	c.persistLocked()
	c.updateGaugesLocked()
	c.mu.Unlock()
}

// touch refreshes a key's eviction timestamp after an index-fast-path
// lookup served it — in memory only, so a hit costs no disk write. The
// refreshed timestamp reaches index.json with the next seal, invalidation
// or eviction, or at Flush.
func (c *Cache) touch(key string) {
	c.mu.Lock()
	if ent, ok := c.index[key]; ok {
		ent.LastValidated = time.Now().UnixNano()
		c.index[key] = ent
	}
	c.mu.Unlock()
}

// Flush persists the index, carrying out the eviction timestamps that
// lookups refreshed in memory since the last write. The server calls it
// once at shutdown.
func (c *Cache) Flush() {
	c.mu.Lock()
	c.persistLocked()
	c.mu.Unlock()
}

// Entries returns how many entries the index currently holds.
func (c *Cache) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Size returns the summed on-disk size of the indexed entries.
func (c *Cache) Size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, ent := range c.index {
		total += ent.Size
	}
	return total
}

// EvictOver brings the cache under quota bytes by deleting entries in
// least-recently-validated order, skipping pinned keys (live jobs whose
// entry is still being served). Each candidate is revalidated before
// its file is deleted: an entry that fails validation drops out of the
// index without a delete (Revalidate already pruned it), so the index
// stays consistent with the directory either way. Returns how many
// entries were deleted and how many bytes they freed.
func (c *Cache) EvictOver(quota int64, pinned map[string]bool) (evicted int, freed int64) {
	if quota <= 0 {
		return 0, 0
	}
	type cand struct {
		key  string
		size int64
		last int64
	}
	c.mu.Lock()
	var total int64
	cands := make([]cand, 0, len(c.index))
	for k, ent := range c.index {
		total += ent.Size
		cands = append(cands, cand{key: k, size: ent.Size, last: ent.LastValidated})
	}
	c.mu.Unlock()
	if total <= quota {
		return 0, 0
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].last != cands[j].last {
			return cands[i].last < cands[j].last
		}
		return cands[i].key < cands[j].key
	})
	for _, cd := range cands {
		if total <= quota {
			break
		}
		if pinned[cd.key] {
			continue
		}
		if _, _, _, ok := c.Revalidate(cd.key); !ok {
			// Already invalid: Revalidate dropped it from the index, so
			// its bytes no longer count against the quota.
			total -= cd.size
			continue
		}
		if err := os.Remove(c.EntryPath(cd.key)); err != nil {
			continue
		}
		c.mu.Lock()
		delete(c.index, cd.key)
		delete(c.validated, cd.key)
		c.persistLocked()
		c.updateGaugesLocked()
		c.mu.Unlock()
		total -= cd.size
		freed += cd.size
		evicted++
		metCacheEvictions.Inc()
		metCacheEvictedBytes.Add(float64(cd.size))
		c.log.Info("cache entry evicted",
			"key", cd.key, "bytes", cd.size,
			"last_validated_age", time.Since(time.Unix(0, cd.last)).Round(time.Millisecond))
	}
	return evicted, freed
}

// persistLocked writes index.json atomically (tmp + rename). Failures
// are ignored: the index is advisory, and the worst a lost write costs
// is one rehash in a future process. Called with c.mu held.
//
// The bytes are those of json.MarshalIndent(c.index, "", "  ") plus a
// newline, but streamed entry by entry in sorted-key order through a
// small buffered writer: the index is rewritten on every seal, and
// marshalling it whole builds three copies of it per write — megabytes
// of large-object garbage per second once the cache holds hundreds of
// entries. No buffer is kept on the Cache between writes either; a
// retained one only raises the heap's floor.
func (c *Cache) persistLocked() {
	tmp := c.indexPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return
	}
	w := bufio.NewWriter(f)
	c.encodeIndexLocked(w)
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return
	}
	os.Rename(tmp, c.indexPath())
}

// encodeIndexLocked streams the index to w in json.MarshalIndent's
// layout. Write errors stick to w and surface at its Flush.
func (c *Cache) encodeIndexLocked(w *bufio.Writer) {
	if len(c.index) == 0 {
		w.WriteString("{}\n")
		return
	}
	keys := make([]string, 0, len(c.index))
	for k := range c.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var scratch [512]byte
	w.WriteString("{\n")
	for i, k := range keys {
		ent := c.index[k]
		b := append(scratch[:0], "  "...)
		b = appendJSONString(b, k)
		b = append(b, ": {\n    \"records\": "...)
		b = strconv.AppendInt(b, int64(ent.Records), 10)
		b = append(b, ",\n    \"sha256\": "...)
		b = appendJSONString(b, ent.SHA256)
		b = append(b, ",\n    \"length\": "...)
		b = strconv.AppendInt(b, ent.Length, 10)
		b = append(b, ",\n    \"size\": "...)
		b = strconv.AppendInt(b, ent.Size, 10)
		b = append(b, ",\n    \"mtime_ns\": "...)
		b = strconv.AppendInt(b, ent.ModTimeNS, 10)
		if ent.LastValidated != 0 {
			b = append(b, ",\n    \"last_validated_ns\": "...)
			b = strconv.AppendInt(b, ent.LastValidated, 10)
		}
		b = append(b, "\n  }"...)
		if i < len(keys)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		w.Write(b)
	}
	w.WriteString("}\n")
}

// appendJSONString appends s as a JSON string. Keys and hashes are hex,
// which needs no escaping; anything else goes through encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// ImportRunDir converts a finished coordinator run directory into a
// cache entry: the manifest names the job (and therefore the key), and
// merged.jsonl — byte-identical to the unsharded stream by the
// coordinator's contract — becomes the entry's record region, with the
// completion marker recomputed during the copy. Importing an
// already-cached job is a no-op.
func (c *Cache) ImportRunDir(dir string) (key string, err error) {
	job, _, err := dist.ReadRunManifest(dir)
	if err != nil {
		return "", err
	}
	key, err = JobKey(job)
	if err != nil {
		return "", err
	}
	if _, _, _, ok := c.Lookup(key); ok {
		return key, nil
	}
	merged, err := os.Open(filepath.Join(dir, "merged.jsonl"))
	if err != nil {
		return "", fmt.Errorf("serve: import %s: no merged stream (is the run complete?): %w", dir, err)
	}
	defer merged.Close()

	lg, err := sink.CreateLog(c.EntryPath(key))
	if err != nil {
		return "", err
	}
	defer lg.Close()
	sc := sink.NewLineScanner(merged)
	for sc.Scan() {
		if line := sc.Bytes(); sink.IsRecord(line) {
			if _, err := lg.Write(append(line, '\n')); err != nil {
				return "", err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if err := lg.Seal(); err != nil {
		return "", err
	}
	c.Seal(key, lg)
	return key, nil
}
