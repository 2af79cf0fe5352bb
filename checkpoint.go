package cgp

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
)

// Checkpointing (DESIGN.md §11).
//
// When RunnerOptions.CheckpointDir is set, every completed Result is
// persisted as one JSON file keyed by the run cache key (workload name
// + full config fingerprint) and the campaign scope (workload sizing +
// seed), so a re-run of cmd/experiments after a crash, Ctrl-C or
// timeout skips the jobs that already finished. Files are written with
// the temp-file + rename idiom, so a checkpoint is either complete and
// valid or absent — a killed writer cannot leave a half checkpoint
// that a resume would trust.
//
// Checkpoints carry a CRC-32C over the result payload; a file that
// fails the version, key, scope or checksum test is ignored (and the
// cell recomputed), never an error — a bad checkpoint degrades to a
// cache miss. Simulations are deterministic, so a resumed campaign
// produces byte-identical figures whether each cell came from the
// checkpoint or from a fresh simulation.

// checkpointVersion is bumped when the file layout changes; files with
// another version are ignored.
const checkpointVersion = 1

// ckptTable is the CRC-32C polynomial used for payload checksums.
var ckptTable = crc32.MakeTable(crc32.Castagnoli)

// checkpointRecord is the on-disk layout of one completed job.
type checkpointRecord struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`   // run cache key (workload + config fingerprint)
	Scope   string          `json:"scope"` // campaign scope (workload sizing + seed)
	Sum     uint32          `json:"sum"`   // CRC-32C of Result
	Result  json.RawMessage `json:"result"`
}

// scopeFingerprint pins checkpoints to this runner's campaign: a
// result recorded at one Wisconsin cardinality, TPC-H scale or seed
// must never satisfy a run at another. The run key alone cannot
// distinguish them — it fingerprints the config, not the data. The
// attribution flag is scope, not config: enabling it adds the
// Attribution rows to every Result, so plain and attributed campaigns
// must not serve each other's checkpoints.
func (r *Runner) scopeFingerprint() string {
	return fmt.Sprintf("db{%+v} seed%d attr%t", r.opts.DB, r.opts.Seed, r.opts.Attribution)
}

// checkpointPath maps a run key to its file in this runner's scope.
// The name is a hash: run keys contain fingerprint text unfit for
// filenames, and the hash also covers the scope so differently-scaled
// campaigns can share one directory without colliding.
func (r *Runner) checkpointPath(key string) string {
	h := fnv.New64a()
	io.WriteString(h, key)
	io.WriteString(h, "\x00")
	io.WriteString(h, r.scopeFingerprint())
	return filepath.Join(r.opts.CheckpointDir, fmt.Sprintf("%016x.json", h.Sum64()))
}

// loadCheckpoint returns the persisted Result for (w, cfg) if a valid
// checkpoint exists. Any defect — missing file, truncation, version or
// scope mismatch, checksum failure — reads as a miss.
func (r *Runner) loadCheckpoint(w *Workload, cfg Config) (*Result, bool) {
	if r.opts.CheckpointDir == "" {
		return nil, false
	}
	key := cellKey(w.Name, cfg)
	data, err := os.ReadFile(r.checkpointPath(key))
	if err != nil {
		return nil, false
	}
	reject := func(why string) (*Result, bool) {
		r.opts.Log("checkpoint %s/%s: %s; recomputing", w.Name, cfg.Label(), why)
		return nil, false
	}
	var cr checkpointRecord
	if err := json.Unmarshal(data, &cr); err != nil {
		return reject("unreadable")
	}
	if cr.Version != checkpointVersion {
		return reject(fmt.Sprintf("version %d", cr.Version))
	}
	if cr.Key != key || cr.Scope != r.scopeFingerprint() {
		return reject("key/scope mismatch")
	}
	if crc32.Checksum(cr.Result, ckptTable) != cr.Sum {
		return reject("checksum mismatch")
	}
	var res Result
	if err := json.Unmarshal(cr.Result, &res); err != nil || res.CPU == nil {
		return reject("payload corrupt")
	}
	return &res, true
}

// storeCheckpoint persists a completed Result atomically. Failures are
// logged and swallowed: a campaign that cannot checkpoint still
// computes correct results, it just cannot resume.
func (r *Runner) storeCheckpoint(w *Workload, cfg Config, res *Result) {
	if r.opts.CheckpointDir == "" {
		return
	}
	sp := r.obsSpan("checkpoint", "checkpoint").
		Arg("workload", w.Name).Arg("config", cfg.Label())
	defer sp.End()
	key := cellKey(w.Name, cfg)
	data, err := r.encodeRecord(key, res)
	if err != nil {
		r.opts.Log("checkpoint %s/%s: encode: %v", w.Name, cfg.Label(), err)
		return
	}
	if err := writeFileAtomic(r.checkpointPath(key), data); err != nil {
		r.opts.Log("checkpoint %s/%s: %v", w.Name, cfg.Label(), err)
	}
}

// encodeRecord serializes one completed Result as its checkpoint file.
func (r *Runner) encodeRecord(key string, res *Result) ([]byte, error) {
	body, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return json.Marshal(checkpointRecord{
		Version: checkpointVersion,
		Key:     key,
		Scope:   r.scopeFingerprint(),
		Sum:     crc32.Checksum(body, ckptTable),
		Result:  body,
	})
}

// writeFileAtomic writes data to path via a temp file in the same
// directory plus rename, creating the directory on first use.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
