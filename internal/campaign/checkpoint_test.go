package campaign

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseCheckpoint feeds arbitrary bytes to resume as an existing
// checkpoint of testSpec. Resume must never panic, and when it accepts the
// file, what it accepted must be sound: one record per complete line after
// the header, each for a known cell with a positive attempt count and a
// finite non-negative backoff; the file is cut back to its complete lines;
// and the records survive being appended to a fresh checkpoint and resumed
// again.
func FuzzParseCheckpoint(f *testing.F) {
	spec := testSpec()
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	if _, err := Run(spec, Config{Workers: 1, CheckpointPath: path, StopAfter: 3}, fakeCellFunc); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitAfter(string(valid), "\n")
	header, last := lines[0], lines[len(lines)-2]
	other := spec
	other.Seed = 99
	f.Add(valid)
	f.Add(valid[:len(valid)-7])                                                               // torn tail
	f.Add([]byte(strings.Replace(string(valid), spec.Fingerprint(), other.Fingerprint(), 1))) // fingerprint mismatch
	f.Add(append(append([]byte(nil), valid...), last...))                                     // duplicate cell
	cell := spec.Cells()[5].ID
	f.Add([]byte(header + "ok\t" + cell + "\t1\tNaN\t1,2\n"))  // NaN backoff
	f.Add([]byte(header + "fail\t" + cell + "\t2\t+Inf\tx\n")) // infinite backoff

	dir := f.TempDir() // one per fuzzing process, which runs inputs one at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "in.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		done, cp, err := openCheckpoint(path, spec, true)
		if err != nil {
			return
		}
		if err := cp.close(); err != nil {
			t.Fatal(err)
		}
		complete := data[:strings.LastIndexByte(string(data), '\n')+1]
		if n := strings.Count(string(complete), "\n"); len(complete) > 0 && len(done) != n-1 {
			t.Fatalf("%d complete records, %d accepted", n-1, len(done))
		}
		if kept, err := os.ReadFile(path); err != nil {
			t.Fatal(err)
		} else if len(complete) > 0 && string(kept) != string(complete) {
			t.Fatalf("file kept %q, want its complete lines %q", kept, complete)
		}
		for id, r := range done {
			if _, ok := spec.Find(id); !ok || r.Attempts < 1 || !(r.BackoffS >= 0) || math.IsInf(r.BackoffS, 1) {
				t.Fatalf("accepted unsound record %+v", r)
			}
		}
		again := filepath.Join(dir, "again.ckpt")
		if err := os.Remove(again); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		_, cp, err = openCheckpoint(again, spec, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range spec.Cells() {
			if r, ok := done[c.ID]; ok {
				if err := cp.append(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := cp.close(); err != nil {
			t.Fatal(err)
		}
		back, cp, err := openCheckpoint(again, spec, true)
		if err != nil {
			t.Fatalf("re-written records refused: %v", err)
		}
		if err := cp.close(); err != nil {
			t.Fatal(err)
		}
		for id, r := range done {
			b := back[id]
			if b.Attempts != r.Attempts || fm(b.BackoffS) != fm(r.BackoffS) || b.Fields != r.Fields || b.Err != r.Err {
				t.Fatalf("record %s changed on rewrite: %+v → %+v", id, r, b)
			}
		}
		if len(back) != len(done) {
			t.Fatalf("rewrite kept %d of %d records", len(back), len(done))
		}
	})
}
