package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
)

// golden is a slice of a committed results/*.csv: its header and the
// rows whose key column holds one of the wanted keys, in file order.
type golden struct {
	path   string
	header string
	rows   []string
}

// loadGolden extracts the rows of path whose keyCol value is in keys.
// Every key must be present exactly once.
func loadGolden(path, keyCol string, keys []string) (golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return golden{}, err
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	g := golden{path: path, header: lines[0]}
	col := -1
	for i, name := range strings.Split(g.header, ",") {
		if name == keyCol {
			col = i
		}
	}
	if col < 0 {
		return golden{}, fmt.Errorf("%s: no key column %q", path, keyCol)
	}
	want := map[string]int{}
	for _, k := range keys {
		want[k] = 0
	}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if col >= len(fields) {
			return golden{}, fmt.Errorf("%s: short row %q", path, line)
		}
		if n, ok := want[fields[col]]; ok {
			want[fields[col]] = n + 1
			g.rows = append(g.rows, line)
		}
	}
	for _, k := range keys {
		if want[k] != 1 {
			return golden{}, fmt.Errorf("%s: key %s=%s appears %d times, want 1", path, keyCol, k, want[k])
		}
	}
	return g, nil
}

// check compares a CSV the program wrote with the committed slice, byte
// for byte: the same header, then exactly the selected rows.
func (g golden) check(out []byte) error {
	want := g.header + "\n" + strings.Join(g.rows, "\n") + "\n"
	if bytes.Equal(out, []byte(want)) {
		return nil
	}
	got := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	exp := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	for i := 0; i < max(len(got), len(exp)); i++ {
		var a, b string
		if i < len(got) {
			a = got[i]
		}
		if i < len(exp) {
			b = exp[i]
		}
		if a != b {
			return fmt.Errorf("output differs from %s at line %d:\n  got  %q\n  want %q", g.path, i+1, a, b)
		}
	}
	return fmt.Errorf("output differs from %s", g.path)
}
