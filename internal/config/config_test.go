package config

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRoundtrip(t *testing.T) {
	f := Default()
	f.Workload = "gups"
	f.Config.Cores = 4
	f.Config.POM.SizeBytes = 32 << 20

	data, err := Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "gups" || got.Config.Cores != 4 || got.Config.POM.SizeBytes != 32<<20 {
		t.Errorf("roundtrip lost fields: %+v", got)
	}
	if got.Config.Mode != core.POMTLB {
		t.Errorf("mode = %v", got.Config.Mode)
	}
}

func TestParsePartialKeepsDefaults(t *testing.T) {
	got, err := Parse([]byte(`{"workload":"mcf","config":{"Cores":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.Cores != 2 {
		t.Errorf("Cores = %d", got.Config.Cores)
	}
	// Unspecified fields keep Table 1 defaults.
	if got.Config.L2TLB.Entries != 1536 {
		t.Errorf("partial parse lost defaults: %+v", got.Config.L2TLB)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Parse([]byte(`{"workload":"","config":{}}`)); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := Parse([]byte(`{"workload":"mcf","config":{"Cores":0}}`)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := Parse([]byte(`{"workload":"mcf"} {}`)); err == nil {
		t.Error("data after the object accepted")
	}
}

// TestParseRefusesUnknownFields pins that a misspelt field is an error
// naming it, where encoding/json's default would drop it and run the
// default: here 1,000,000 measured and 200,000 warmup references.
func TestParseRefusesUnknownFields(t *testing.T) {
	for field, js := range map[string]string{
		"MaxRef":   `{"workload":"gups","config":{"Cores":2,"MaxRef":100,"Warmup":5}}`,
		"worklod":  `{"worklod":"gups"}`,
		"Sizebyte": `{"config":{"POM":{"Sizebyte":1048576}}}`,
	} {
		if _, err := Parse([]byte(js)); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: err = %v, want one naming %q", js, err, field)
		}
	}
	// Known names still match without regard to case.
	got, err := Parse([]byte(`{"WORKLOAD":"gups","config":{"cores":2,"maxrefs":100}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "gups" || got.Config.Cores != 2 || got.Config.MaxRefs != 100 {
		t.Errorf("case-insensitive names lost: %+v", got)
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	f := Default()
	if err := Save(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != f.Workload || got.Config.Cores != f.Config.Cores {
		t.Error("save/load mismatch")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
