package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"repro/internal/core"
)

// Campaigns (cmd/experiments -checkpoint) and design-space sweeps share
// one crash-safe journal, the SweepJournal: it appends one fsynced,
// hash-guarded record per cell,
//
//	<64-hex sha256 of payload> <payload JSON>\n
//
// The first record is a header carrying the run's fingerprint (Fingerprint
// for a campaign, SweepFingerprint for a sweep); every later record is a
// completed cell with its full Result, keyed by Cell.Key. Failures are not
// journaled: a quarantine is the verdict of the run that made it and lives
// in that run's manifest, so a resume runs the cell again. A record is
// only trusted once its hash verifies and its newline is on disk, so a
// torn trailing write — the mark of a SIGKILL mid-append — is skipped and
// reported instead of poisoning the resume, and the run re-simulates
// exactly that cell. Corruption anywhere *before* the tail cannot be
// explained by a crash and fails the load.

// Fingerprint identifies the simulation-relevant options of a campaign:
// the simulated machine (without the Mode each cell names for itself) and
// the campaign settings that change what a cell computes. A journal
// written under one fingerprint refuses to resume under another: mixing
// cells from different machine configurations would silently corrupt
// every figure. The workload subset, timeout and fault-injection
// settings are deliberately excluded — they change which cells run, not
// what any cell computes (the DRAM fault hooks marshal to nothing).
func Fingerprint(o Options) string {
	cfg := o.Config
	cfg.Mode = ""
	key := struct {
		Config            core.Config
		UncalibratedWalks bool
		Tenants           int
		ChurnEvery        int
		Phases            int
	}{cfg, o.UncalibratedWalks, o.Tenants, o.ChurnEvery, o.Phases}
	b, err := json.Marshal(key)
	if err != nil { // a config of plain values cannot fail to marshal
		panic(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// SweepFingerprint identifies a sweep: the simulation-relevant campaign
// options plus the canonical grid spec. A journal written under one grid
// refuses to resume under another — cells are indexed by grid coordinates,
// and mixing geometries would silently misattribute results.
func SweepFingerprint(o Options, grid string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s", Fingerprint(o), grid)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// sweepRecord is the on-disk payload of one journal line.
type sweepRecord struct {
	Kind        string       `json:"kind"` // "header" or "done"
	Version     int          `json:"version,omitempty"`
	Fingerprint string       `json:"fingerprint,omitempty"`
	Key         string       `json:"key,omitempty"`
	Result      *core.Result `json:"result,omitempty"`
}

// SweepJournal is the crash-safe cell journal of campaigns and sweeps.
// All methods are safe for concurrent use by the engine's workers; a nil
// *SweepJournal is inert (runs without -checkpoint).
type SweepJournal struct {
	path string

	mu        sync.Mutex
	f         *os.File
	done      map[string]core.Result
	truncated int
}

// sweepLine renders one hash-guarded journal line for a payload.
func sweepLine(rec sweepRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, 64+1+len(payload)+1)
	line = append(line, fmt.Sprintf("%x", sha256.Sum256(payload))...)
	line = append(line, ' ')
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// parseSweepLine verifies and decodes one journal line.
func parseSweepLine(line []byte) (sweepRecord, error) {
	var rec sweepRecord
	if len(line) < 66 || line[64] != ' ' {
		return rec, fmt.Errorf("short or unframed record")
	}
	payload := line[65:]
	if sum := fmt.Sprintf("%x", sha256.Sum256(payload)); sum != string(line[:64]) {
		return rec, fmt.Errorf("integrity hash mismatch")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("corrupt payload: %w", err)
	}
	return rec, nil
}

// OpenSweepJournal opens (or creates) the append-only journal at path for
// a campaign or sweep with the given fingerprint. A missing file is
// initialized with a header record; an existing file is replayed record by
// record. A record that fails its integrity hash or lacks its newline is
// tolerated only at the very end of the file — the torn tail of an
// interrupted append — and is counted in TruncatedRecords; a bad record
// anywhere earlier, or a header fingerprint that does not match, fails the
// open with a descriptive error. A file that starts with '{' is the
// whole-file JSON checkpoint older versions wrote; it is refused and left
// untouched rather than recreated as a torn header. The "quarantined"
// records older versions wrote are skipped, so those cells run again.
// The caller owns the returned journal and must Close it.
func OpenSweepJournal(path, fingerprint string) (*SweepJournal, error) {
	j := &SweepJournal{
		path: path,
		done: map[string]core.Result{},
	}
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh journal: create with a fsynced header record.
		return j, j.create(fingerprint)
	case err != nil:
		return nil, fmt.Errorf("journal: %w", err)
	}
	if len(raw) > 0 && raw[0] == '{' {
		return nil, fmt.Errorf("journal %s is a whole-file JSON checkpoint from an older version, which this version cannot resume; move it aside and rerun", path)
	}
	validLen, err := j.replay(raw, fingerprint)
	if err != nil {
		return nil, err
	}
	if j.f != nil {
		// replay recreated the file (torn header); it is already open.
		return j, nil
	}
	if validLen < int64(len(raw)) {
		// A torn tail was skipped. Truncate it away before appending:
		// otherwise the next record would be glued onto the partial line
		// and read back as mid-file corruption.
		if err := os.Truncate(path, validLen); err != nil {
			return nil, fmt.Errorf("journal: dropping torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	return j, nil
}

// create initializes a fresh journal file with its header.
func (j *SweepJournal) create(fingerprint string) error {
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	line, err := sweepLine(sweepRecord{Kind: "header", Version: 1, Fingerprint: fingerprint})
	if err == nil {
		_, err = f.Write(line)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	j.f = f
	return nil
}

// journalLine is one physical line plus the file offset just past its
// terminator (or past its last byte for an unterminated tail), so the
// loader can truncate a torn tail away precisely.
type journalLine struct {
	data []byte
	end  int64
}

// splitJournalLines splits raw on newlines, keeping a trailing partial
// line (no terminator) so the torn-tail check sees it.
func splitJournalLines(raw []byte) []journalLine {
	var lines []journalLine
	var off int64
	for len(raw) > 0 {
		i := 0
		for i < len(raw) && raw[i] != '\n' {
			i++
		}
		end := off + int64(i)
		if i < len(raw) {
			end++ // include the terminator
		}
		if i > 0 {
			lines = append(lines, journalLine{data: raw[:i], end: end})
		}
		if i == len(raw) {
			break
		}
		raw = raw[i+1:]
		off = end
	}
	return lines
}

// replay loads an existing journal body, tolerating exactly one torn
// record at the tail. It returns the byte offset of the end of the last
// valid record, so the caller can truncate torn bytes before appending.
func (j *SweepJournal) replay(raw []byte, fingerprint string) (int64, error) {
	lines := splitJournalLines(raw)
	if len(lines) == 0 {
		// File exists but holds no complete record (torn header write):
		// treat as fresh and recreate it with a proper header.
		j.truncated++
		return 0, j.create(fingerprint)
	}
	last := len(lines) - 1
	var validLen int64
	for i, line := range lines {
		rec, err := parseSweepLine(line.data)
		if err == nil && i == last && raw[len(raw)-1] != '\n' {
			// The hash verifies but the newline never landed: appending
			// here would glue the next record onto this one.
			err = errors.New("unterminated record")
		}
		if err != nil {
			if i == last {
				// Torn tail: the record being appended when the process
				// died. The cell it described was never acknowledged, so
				// skipping it is exactly "resume with the missing cells".
				j.truncated++
				if i == 0 {
					// The torn record was the header itself; recreate the
					// journal so appends land after a valid header.
					return 0, j.create(fingerprint)
				}
				return validLen, nil
			}
			return 0, fmt.Errorf("journal %s: record %d: %v (corruption before the tail cannot come from a torn append; refusing to resume)", j.path, i+1, err)
		}
		if i == 0 {
			if rec.Kind != "header" {
				return 0, fmt.Errorf("journal %s: first record is %q, want header", j.path, rec.Kind)
			}
			if rec.Fingerprint != fingerprint {
				return 0, fmt.Errorf("journal %s was written with different options or grid geometry; delete it or rerun with the original flags", j.path)
			}
			validLen = line.end
			continue
		}
		switch rec.Kind {
		case "done":
			if rec.Result != nil {
				j.done[rec.Key] = *rec.Result
			}
		case "quarantined":
			// An older version's failure record: skipped, so the cell
			// runs again.
		default:
			return 0, fmt.Errorf("journal %s: record %d has unknown kind %q", j.path, i+1, rec.Kind)
		}
		validLen = line.end
	}
	return validLen, nil
}

// append writes one record to the journal and fsyncs it. Appends are not
// blindly retried: a failed write may have landed partial bytes, and a
// retry after that would stack a valid record on a torn one mid-file,
// which the loader correctly refuses.
func (j *SweepJournal) append(rec sweepRecord) error {
	line, err := sweepLine(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// PutDone journals one completed cell.
func (j *SweepJournal) PutDone(key string, res core.Result) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.append(sweepRecord{Kind: "done", Key: key, Result: &res}); err != nil {
		return err
	}
	j.done[key] = res
	return nil
}

// Done returns the journaled result for a completed cell, if present.
func (j *SweepJournal) Done(key string) (core.Result, bool) {
	if j == nil {
		return core.Result{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	res, ok := j.done[key]
	return res, ok
}

// Len returns the number of journaled completed cells.
func (j *SweepJournal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// TruncatedRecords reports how many torn tail records were skipped when
// the journal was opened — 0 for a cleanly closed journal, 1 after a
// SIGKILL mid-append.
func (j *SweepJournal) TruncatedRecords() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.truncated
}

// Close releases the journal's file handle. Records already appended are
// durable regardless — each one was fsynced.
func (j *SweepJournal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.f.Close()
	j.f = nil
	return err
}
