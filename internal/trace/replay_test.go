package trace

import (
	"bytes"
	"testing"

	"repro/internal/addr"
)

func TestReplayLoops(t *testing.T) {
	recs := []Record{
		{VA: 1, Thread: 0, Size: addr.Page4K},
		{VA: 2, Thread: 1, Size: addr.Page2M},
		{VA: 3, Thread: 0, Size: addr.Page4K},
	}
	r := NewReplay(recs)
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	for pass := 0; pass < 3; pass++ {
		for i, want := range recs {
			if got := r.Next(); got != want {
				t.Fatalf("pass %d record %d: %+v != %+v", pass, i, got, want)
			}
		}
	}
}

func TestReplayCopiesInput(t *testing.T) {
	recs := []Record{{VA: 1}}
	r := NewReplay(recs)
	recs[0].VA = 99
	if r.Next().VA != 1 {
		t.Error("replay should copy the input slice")
	}
}

func TestReplayEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewReplay(nil)
}

func TestLoadReplay(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	g := NewUniform(testParams())
	if err := WriteAll(w, g, 500); err != nil {
		t.Fatal(err)
	}
	r, err := LoadReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 500 {
		t.Errorf("Len = %d", r.Len())
	}
	// Replay reproduces the original stream exactly.
	g = NewUniform(testParams())
	for i := 0; i < 500; i++ {
		if r.Next() != g.Next() {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestLoadReplayErrors(t *testing.T) {
	if _, err := LoadReplay(bytes.NewReader([]byte("bad magic header"))); err == nil {
		t.Error("bad stream accepted")
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Flush()
	if _, err := LoadReplay(&buf); err == nil {
		t.Error("empty trace accepted")
	}
}
