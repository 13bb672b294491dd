// Package config provides JSON round-tripping for simulator
// configurations, so experiments can be pinned in version-controlled
// files and replayed exactly (cmd/pomsim -config).
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

// File is the on-disk configuration: the full core.Config plus a workload
// selection.
type File struct {
	// Workload names a Table 2 benchmark.
	Workload string `json:"workload"`
	// Config is the simulated machine.
	Config core.Config `json:"config"`
}

// Default returns a File with the paper's defaults and mcf selected.
func Default() File {
	return File{Workload: "mcf", Config: core.DefaultConfig()}
}

// Load reads and validates a configuration file.
func Load(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, fmt.Errorf("config: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates configuration JSON. A field name the File
// does not have is an error, not ignored: a misspelt "MaxRef" would
// otherwise run the default reference count. Names still match without
// regard to case, as encoding/json matches them.
func Parse(data []byte) (File, error) {
	f := Default() // unspecified fields keep their defaults
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return File{}, fmt.Errorf("config: parsing: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return File{}, fmt.Errorf("config: parsing: data after the top-level object")
	}
	if err := f.Config.Validate(); err != nil {
		return File{}, fmt.Errorf("config: %w", err)
	}
	if f.Workload == "" {
		return File{}, fmt.Errorf("config: no workload named")
	}
	return f, nil
}

// Save writes the configuration as indented JSON.
func Save(path string, f File) error {
	data, err := Marshal(f)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// Marshal encodes the configuration as indented JSON.
func Marshal(f File) ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("config: encoding: %w", err)
	}
	return append(data, '\n'), nil
}
