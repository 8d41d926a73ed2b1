package campaign

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The checkpoint is a line-oriented append log. The first line binds the
// file to a campaign spec; each further line records one completed cell
// in completion order (which varies with worker scheduling — the final
// CSV re-sorts into matrix order, so checkpoint line order never leaks
// into results):
//
//	openspace-campaign v1 <tab> <name> <tab> <fingerprint> <tab> <cells>
//	ok   <tab> <cellID> <tab> <attempts> <tab> <backoffS> <tab> <metric fields>
//	fail <tab> <cellID> <tab> <attempts> <tab> <backoffS> <tab> <error>
//
// Metric fields are stored as the exact string the CSV row would carry,
// so a resumed campaign replays bytes, not re-derived floats. A record
// counts only if its newline landed: an unterminated tail means the
// process died mid-append, so resume drops it (that cell reruns) and
// truncates the file back to the last complete record before appending.
// A malformed line that does end in a newline is real corruption and
// fails the resume.
const checkpointMagic = "openspace-campaign v1"

// checkpointFile owns the append stream for one campaign run.
type checkpointFile struct {
	f *os.File
	w *bufio.Writer
}

// openCheckpoint prepares the checkpoint at path: parsing any existing
// records (resume) or refusing them (fresh run), then opening the file
// for appending, with a header when the file is new or empty.
func openCheckpoint(path string, spec Spec, resume bool) (map[string]CellResult, *checkpointFile, error) {
	done := map[string]CellResult{}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	// Only bytes up to the last newline are complete records; a torn tail
	// (killed mid-append) is dropped, and the file is truncated back to
	// the complete prefix so new records never concatenate onto it.
	valid := len(data)
	if valid > 0 && data[valid-1] != '\n' {
		valid = strings.LastIndexByte(string(data), '\n') + 1
	}
	if len(data) > 0 {
		if !resume {
			return nil, nil, fmt.Errorf("campaign: checkpoint %s already has records; resume to continue it or remove it to start over", path)
		}
		if done, err = parseCheckpoint(string(data[:valid]), spec); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if err := f.Truncate(int64(valid)); err == nil {
		_, err = f.Seek(int64(valid), io.SeekStart)
	}
	if err != nil {
		if cerr := f.Close(); cerr != nil {
			return nil, nil, fmt.Errorf("campaign: checkpoint: %v (and close: %w)", err, cerr)
		}
		return nil, nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	cp := &checkpointFile{f: f, w: bufio.NewWriter(f)}
	if valid == 0 {
		if _, err := fmt.Fprintf(cp.w, "%s\t%s\t%s\t%d\n",
			checkpointMagic, spec.Name, spec.Fingerprint(), len(spec.Cells())); err != nil {
			if cerr := f.Close(); cerr != nil {
				return nil, nil, fmt.Errorf("campaign: checkpoint: %v (and close: %w)", err, cerr)
			}
			return nil, nil, fmt.Errorf("campaign: checkpoint: %w", err)
		}
	}
	return done, cp, nil
}

// append records one completed cell and flushes it to the OS, so a
// record survives any later kill of the process.
func (cp *checkpointFile) append(r CellResult) error {
	status, payload := "ok", r.Fields
	if r.Failed() {
		status, payload = "fail", r.Err
	}
	if _, err := fmt.Fprintf(cp.w, "%s\t%s\t%d\t%s\t%s\n",
		status, r.Cell.ID, r.Attempts, fm(r.BackoffS), payload); err != nil {
		return err
	}
	return cp.w.Flush()
}

func (cp *checkpointFile) close() error {
	if err := cp.w.Flush(); err != nil {
		if cerr := cp.f.Close(); cerr != nil {
			return fmt.Errorf("%v (and close: %w)", err, cerr)
		}
		return err
	}
	return cp.f.Close()
}

// parseCheckpoint validates the header against the spec and returns the
// recorded outcomes keyed by cell ID. Run records each cell at most once,
// so a second record for a cell is corruption, not an update.
func parseCheckpoint(data string, spec Spec) (map[string]CellResult, error) {
	lines := strings.Split(data, "\n")
	// The caller hands over only newline-terminated bytes; drop the empty
	// terminal element of the split.
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return map[string]CellResult{}, nil
	}
	head := strings.Split(lines[0], "\t")
	if len(head) != 4 || head[0] != checkpointMagic {
		return nil, fmt.Errorf("campaign: checkpoint header %q is not a %s log", lines[0], checkpointMagic)
	}
	if head[1] != spec.Name || head[2] != spec.Fingerprint() {
		return nil, fmt.Errorf("campaign: checkpoint is for campaign %s (fingerprint %s), not %s (%s) — the matrix changed; remove the checkpoint to start over",
			head[1], head[2], spec.Name, spec.Fingerprint())
	}
	known := map[string]bool{}
	for _, c := range spec.Cells() {
		known[c.ID] = true
	}
	done := map[string]CellResult{}
	for _, line := range lines[1:] {
		r, err := parseRecord(line, known)
		if err != nil {
			return nil, err
		}
		if _, dup := done[r.Cell.ID]; dup {
			return nil, fmt.Errorf("campaign: checkpoint records cell %q twice", r.Cell.ID)
		}
		done[r.Cell.ID] = r
	}
	return done, nil
}

func parseRecord(line string, known map[string]bool) (CellResult, error) {
	parts := strings.SplitN(line, "\t", 5)
	if len(parts) != 5 || (parts[0] != "ok" && parts[0] != "fail") {
		return CellResult{}, fmt.Errorf("campaign: malformed checkpoint record %q", line)
	}
	if !known[parts[1]] {
		return CellResult{}, fmt.Errorf("campaign: checkpoint records unknown cell %q", parts[1])
	}
	attempts, err := strconv.Atoi(parts[2])
	if err != nil || attempts <= 0 {
		return CellResult{}, fmt.Errorf("campaign: checkpoint record %q has bad attempt count", line)
	}
	backoffS, err := strconv.ParseFloat(parts[3], 64)
	if err != nil || !(backoffS >= 0) || math.IsInf(backoffS, 1) {
		return CellResult{}, fmt.Errorf("campaign: checkpoint record %q has bad backoff", line)
	}
	r := CellResult{
		Cell:           Cell{ID: parts[1]},
		Attempts:       attempts,
		BackoffS:       backoffS,
		FromCheckpoint: true,
	}
	if parts[0] == "ok" {
		if parts[4] == "" {
			return CellResult{}, fmt.Errorf("campaign: checkpoint record %q has no metrics", line)
		}
		r.Fields = parts[4]
	} else {
		r.Err = parts[4]
		if r.Err == "" {
			r.Err = "unrecorded failure"
		}
	}
	return r, nil
}
