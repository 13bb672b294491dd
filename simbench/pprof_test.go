package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var busySink uint64

//go:noinline
func busyLoop(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10_000; i++ {
			busySink = busySink*6364136223846793005 + 1442695040888963407
		}
	}
}

// TestParseProfileLabelledCPU decodes a real CPU profile written by
// runtime/pprof while a labelled goroutine burns CPU.
func TestParseProfileLabelledCPU(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	pprof.Do(context.Background(), pprof.Labels("scheme", "test-scheme"), func(context.Context) {
		busyLoop(400 * time.Millisecond)
	})
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.valueIndex("samples") < 0 || p.valueIndex("cpu") < 0 {
		t.Fatalf("sample types %v, want samples and cpu", p.SampleTypes)
	}
	// Samples taken inside the race detector's C code carry truncated
	// stacks, so only some labelled samples need show the busy loop.
	var labelled, inLoop int
	for _, s := range p.Samples {
		if s.Labels["scheme"] != "test-scheme" {
			continue
		}
		labelled++
		for _, fn := range s.Stack {
			if strings.HasSuffix(fn, ".busyLoop") {
				inLoop++
				break
			}
		}
	}
	if labelled == 0 || inLoop == 0 {
		t.Fatalf("%d of %d samples carry the scheme label, %d of them in busyLoop", labelled, len(p.Samples), inLoop)
	}
}

// pb is a minimal protobuf encoder for hand-built profiles.
type pb struct{ b []byte }

func (w *pb) varint(num int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3|wireVarint)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *pb) bytes(num int, v []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3|wireBytes)
	w.b = binary.AppendUvarint(w.b, uint64(len(v)))
	w.b = append(w.b, v...)
}

func (w *pb) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	w.bytes(num, p)
}

// TestParseProfileSynthetic covers what runtime/pprof output may not
// show in a short run: inlined frames (several lines per location),
// repeated fields written both packed and one element at a time, and
// labels.
func TestParseProfileSynthetic(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/tlb.Entry.matches", "repro/internal/tlb.(*TLB).Lookup", "main.main", "scheme", "pom-tlb"}
	var prof pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		prof.bytes(1, m.b)
	}
	// Sample 1: packed location ids and values, one label.
	var s1 pb
	s1.packed(1, 1, 2)
	s1.packed(2, 3, 30_000_000)
	var lbl pb
	lbl.varint(1, 8)
	lbl.varint(2, 9)
	s1.bytes(3, lbl.b)
	prof.bytes(2, s1.b)
	// Sample 2: unpacked location id and values, no label.
	var s2 pb
	s2.varint(1, 2)
	s2.varint(2, 1)
	s2.varint(2, 10_000_000)
	prof.bytes(2, s2.b)
	// Location 1 holds an inlined call: matches inlined into Lookup.
	var loc1 pb
	loc1.varint(1, 1)
	for _, fn := range []uint64{1, 2} {
		var line pb
		line.varint(1, fn)
		line.varint(2, 42)
		loc1.bytes(4, line.b)
	}
	prof.bytes(4, loc1.b)
	var loc2 pb
	loc2.varint(1, 2)
	var line pb
	line.varint(1, 3)
	loc2.bytes(4, line.b)
	prof.bytes(4, loc2.b)
	for i, name := range []uint64{5, 6, 7} {
		var fn pb
		fn.varint(1, uint64(i+1))
		fn.varint(2, name)
		prof.bytes(5, fn.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}

	p, err := parseProfile(prof.b)
	if err != nil {
		t.Fatal(err)
	}
	want := &profile{
		SampleTypes: []string{"samples", "cpu"},
		Samples: []sample{
			{Stack: []string{"repro/internal/tlb.Entry.matches", "repro/internal/tlb.(*TLB).Lookup", "main.main"},
				Values: []int64{3, 30_000_000}, Labels: map[string]string{"scheme": "pom-tlb"}},
			{Stack: []string{"main.main"}, Values: []int64{1, 10_000_000}},
		},
	}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("parsed\n%+v\nwant\n%+v", p, want)
	}

	// Every truncation must decode or fail cleanly, never panic.
	for n := range prof.b {
		parseProfile(prof.b[:n])
	}
	if _, err := parseProfile([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated length-delimited field parsed without error")
	}
}
