package main

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// pinFS holds each workload's seed-1 outputs: a digest per simulation
// run and per response body, and the verdict and exact counts per model
// check. --update rewrites them.
//
//go:embed testdata/*.pins
var pinFS embed.FS

// pinPath is where --update writes a workload's pins, relative to the
// repository root.
func pinPath(name string) string { return filepath.Join("benchmark", "testdata", name+".pins") }

// loadPins reads the embedded pins of a workload: one "id digest" line
// per unit.
func loadPins(name string) (map[string]string, error) {
	data, err := pinFS.ReadFile("testdata/" + name + ".pins")
	if err != nil {
		return nil, err
	}
	pins := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if id, digest, ok := strings.Cut(line, " "); ok {
			pins[id] = digest
		}
	}
	if len(pins) == 0 {
		return nil, fmt.Errorf("no pins for %s: run with --update --seed 1", name)
	}
	return pins, nil
}

// expected returns the outputs every pass must reproduce: the pins at
// seed 1, and the first pass's own outputs at any other seed.
func expected(name string, seed int64, first []unitResult) (map[string]string, error) {
	if seed == 1 {
		return loadPins(name)
	}
	out := make(map[string]string, len(first))
	for _, u := range first {
		out[u.id] = u.digest
	}
	return out, nil
}

// updatePins runs one seed-1 pass of the workload and writes its
// outputs as the new pins. A failed unit writes nothing.
func updatePins(name string, sz sizes) error {
	b, err := newBench(name, 1, sz)
	if err != nil {
		return err
	}
	if err := b.setup(nil, 0); err != nil {
		return err
	}
	p, err := b.pass(nil, 0)
	if err != nil {
		return err
	}
	var sb strings.Builder
	for _, u := range p.units {
		if u.err != nil {
			return u.err
		}
		fmt.Fprintf(&sb, "%s %s\n", u.id, u.digest)
	}
	return os.WriteFile(pinPath(name), []byte(sb.String()), 0o644)
}
