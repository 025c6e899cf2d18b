// Package dist is the distributed shard coordinator: it takes an
// experiment (or scenario sweep), a shard count and a pool of worker
// slots — local `meshopt work` subprocesses by default, or any command
// template (ssh, kubectl exec, ...) speaking the same stdio protocol —
// dispatches one residue class per slot, consumes each worker's shard
// JSONL as a live stream, and merges records in global cell order while
// late shards are still running (exp.Merger).
//
// Completed shards checkpoint to a run directory: a run.json manifest
// pins the job, and each shard_<i>.jsonl ends in a '#done' completion
// marker carrying the record count and a SHA-256 of the record bytes.
// On restart the coordinator validates existing shard files against
// their markers and re-dispatches only the missing or incomplete
// residue classes; a failed or killed worker is retried on another slot
// with bounded backoff. The merged output is byte-identical to an
// unsharded `meshopt fig` run for any slot count, shard count, failure
// schedule or resume point — the engine's determinism contract is what
// makes retry-and-resume sound: a re-run shard reproduces its stream
// bit for bit, so a retry's already-merged prefix is verified by hash
// and skipped rather than re-merged.
package dist

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/experiments/exp"
	"repro/internal/scenario"
)

// Job names one shardable run. Everything a worker needs to reproduce
// its residue class rides in the Job — names resolve against the
// registries compiled into the binary, and file-based scenario specs
// travel inline as Spec so a remote worker never needs the file. The
// same JSON is run.json's job and the body of serve's POST /v1/jobs.
type Job struct {
	// Experiment is the registry name (fig3..fig14, netvalid,
	// exhaustive, an alias) or a registered scenario name.
	Experiment string `json:"experiment"`
	// Spec is an inline scenario spec; when set it overrides the name
	// lookup (the name is then informational).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Seed is the run seed.
	Seed int64 `json:"seed"`
	// Scale is the scale name ("quick" or "paper"); passing scales by
	// name keeps both sides of a dispatch constructing identical Scale
	// structs.
	Scale string `json:"scale"`
	// Shards is the residue-class count k.
	Shards int `json:"shards"`
}

// Target resolves the job's name to the work it names; it is the one
// place a name becomes work. Exactly one result is non-nil: the
// registry experiment (an alias gives its canonical experiment), or
// else the scenario spec, inline or registered.
func (j Job) Target() (exp.Experiment, *scenario.Spec, error) {
	if len(j.Spec) > 0 {
		spec, err := scenario.Parse(j.Spec)
		if err != nil {
			return nil, nil, err
		}
		return nil, spec, nil
	}
	if e, ok := exp.Find(j.Experiment); ok {
		return e, nil, nil
	}
	if spec, ok := scenario.Lookup(j.Experiment); ok {
		return nil, spec, nil
	}
	return nil, nil, fmt.Errorf("dist: %q is neither a registered experiment nor a scenario", j.Experiment)
}

// Resolve maps the job to its experiment and scale; a scenario runs
// through the scenario→experiment adapter. Both the coordinator and
// every worker resolve the same Job, so the cell enumeration — a pure
// function of (seed, scale) — is identical on every process.
func (j Job) Resolve() (exp.Experiment, exp.Scale, error) {
	sc, ok := exp.NamedScale(j.Scale)
	if !ok {
		return nil, exp.Scale{}, fmt.Errorf("dist: unknown scale %q (want quick or paper)", j.Scale)
	}
	e, spec, err := j.Target()
	if err == nil && spec != nil {
		e, err = scenario.Experiment(spec)
	}
	if err != nil {
		return nil, exp.Scale{}, err
	}
	return e, sc, nil
}

// Entry is one name Target accepts, as `meshopt list` and GET
// /v1/experiments show it.
type Entry struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"` // "figure", "scenario" or "alias"
	Description string `json:"description"`
}

// Catalogue lists every name Target accepts: the registered
// experiments in registration order, then the scenarios and the
// aliases, each sorted.
func Catalogue() []Entry {
	var out []Entry
	for _, name := range exp.Names() {
		e, _ := exp.Find(name)
		out = append(out, Entry{Name: name, Kind: "figure", Description: e.Describe()})
	}
	for _, name := range scenario.Names() {
		spec, _ := scenario.Lookup(name)
		out = append(out, Entry{Name: name, Kind: "scenario", Description: spec.Description})
	}
	aliases := exp.Aliases()
	for _, alias := range slices.Sorted(maps.Keys(aliases)) {
		out = append(out, Entry{Name: alias, Kind: "alias", Description: "alias of " + aliases[alias]})
	}
	return out
}

// manifestVersion guards run-directory layout changes.
const manifestVersion = 1

// manifest is the run.json file pinning a run directory to its job.
type manifest struct {
	Version int    `json:"version"`
	Job     Job    `json:"job"`
	Cells   int    `json:"cells"`
	Created string `json:"created,omitempty"`
}

// ReadRunManifest reads a run directory's run.json and returns the job
// it pins and its cell-enumeration size. It is how other subsystems
// identify a coordinator run directory's contents — e.g. the serve
// cache imports a finished rundir's merged.jsonl as a cache entry keyed
// by this job.
func ReadRunManifest(dir string) (Job, int, error) {
	path := filepath.Join(dir, "run.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return Job{}, 0, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Job{}, 0, fmt.Errorf("dist: %s: %w", path, err)
	}
	if m.Version != manifestVersion {
		return Job{}, 0, fmt.Errorf("dist: %s: manifest version %d, this binary reads %d", path, m.Version, manifestVersion)
	}
	return m.Job, m.Cells, nil
}

// loadOrWriteManifest validates the run directory against the job: a
// fresh directory gets a manifest, a resumed one must match it (a seed
// or scale mismatch would merge incompatible shard streams).
func loadOrWriteManifest(path string, job Job, cells int, created string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		m := manifest{Version: manifestVersion, Job: job, Cells: cells, Created: created}
		out, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(out, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	var have manifest
	if err := json.Unmarshal(data, &have); err != nil {
		return fmt.Errorf("dist: %s: %w", path, err)
	}
	if have.Version != manifestVersion {
		return fmt.Errorf("dist: %s: manifest version %d, this binary writes %d", path, have.Version, manifestVersion)
	}
	want := manifest{Version: manifestVersion, Job: job, Cells: cells}
	haveKey, _ := json.Marshal(manifest{Version: have.Version, Job: have.Job, Cells: have.Cells})
	wantKey, _ := json.Marshal(want)
	if string(haveKey) != string(wantKey) {
		return fmt.Errorf("dist: %s: run directory belongs to a different job\n  have: %s\n  want: %s",
			path, haveKey, wantKey)
	}
	return nil
}
