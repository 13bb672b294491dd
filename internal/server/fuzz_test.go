package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/trace"
)

// FuzzIngest throws arbitrary bytes, split at arbitrary chunk boundaries
// (including mid-record), at the ingest endpoint. The invariants:
//
//   - the handler never panics, whatever the framing;
//   - exactly the whole records of a valid prefix are accepted — a tear
//     mid-record yields no phantom record and loses no complete one;
//   - the HTTP status matches the codec verdict (400 bad magic or a
//     non-canonical VA, 422 truncation, 202 clean);
//   - the session survives malformed uploads and keeps serving metrics.
func FuzzIngest(f *testing.F) {
	valid := fuzzEncode(trace.Collect(parityGen(), 3))
	f.Add([]byte{}, uint8(1))
	f.Add(valid, uint8(5))
	f.Add(valid[:len(valid)-7], uint8(3))        // torn mid-record
	f.Add(valid[:4], uint8(1))                   // torn mid-header
	f.Add([]byte("NOTATRACE-------"), uint8(16)) // full-length bad magic
	f.Add(append(append([]byte{}, valid...), 0xFF), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		srv := New(Config{MaxIngestRecords: -1})
		defer srv.Close()
		mux := srv.Handler()

		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/sessions", strings.NewReader(`{"cores":1}`)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create session: status %d", rec.Code)
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
			t.Fatal(err)
		}

		wantAccepted, wantStatus := expectIngest(data)
		body := &dribbleReader{data: data, n: int(chunk%16) + 1}
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/sessions/"+created.ID+"/records", body))
		if rec.Code != wantStatus {
			t.Fatalf("ingest of %d bytes: status %d, want %d (body %s)",
				len(data), rec.Code, wantStatus, rec.Body.Bytes())
		}
		if rec.Code != http.StatusBadRequest || wantAccepted > 0 {
			var out struct {
				Accepted int `json:"accepted"`
				Ingested int `json:"ingested"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("ingest reply %q: %v", rec.Body.Bytes(), err)
			}
			if out.Accepted != wantAccepted || out.Ingested != wantAccepted {
				t.Fatalf("ingest of %d bytes: accepted %d / ingested %d, want %d whole records",
					len(data), out.Accepted, out.Ingested, wantAccepted)
			}
		}

		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/sessions/"+created.ID+"/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("metrics after fuzzed ingest: status %d", rec.Code)
		}
		var m SessionMetrics
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if m.Ingested != wantAccepted {
			t.Fatalf("session ingested %d records, want %d", m.Ingested, wantAccepted)
		}
	})
}

// FuzzCreateSession throws arbitrary scheme names (and a few other
// knobs) at session creation. The invariants: the handler never panics;
// a request naming a registered scheme (or none) with sane geometry
// yields 201 and a session whose mode echoes the registry's name; any
// unknown scheme name, and any pom_mb whose byte count overflows, yields
// 400, never a session.
func FuzzCreateSession(f *testing.F) {
	for _, n := range core.ModeNames() {
		f.Add(n, 1, false, uint64(0))
	}
	f.Add("", 2, true, uint64(0))
	f.Add("bogus", 1, false, uint64(0))
	f.Add("POM-TLB", 1, false, uint64(0))
	f.Add("victima", 0, false, uint64(0))
	f.Add("dram-cache", -3, true, uint64(0))
	f.Add("shared-l2", 3, false, uint64(0))
	f.Add("pom-tlb", 1, false, uint64(1<<44+16)) // 16 MiB under a bare shift
	f.Fuzz(func(t *testing.T, mode string, cores int, native bool, pomMB uint64) {
		srv := New(Config{})
		defer srv.Close()
		mux := srv.Handler()

		req := CreateRequest{Mode: mode, Cores: cores, Native: native, PomMB: pomMB}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/sessions", bytes.NewReader(body)))

		_, parseErr := core.ParseMode(mode)
		modeOK := mode == "" || parseErr == nil
		switch rec.Code {
		case http.StatusCreated:
			if !modeOK {
				t.Fatalf("created a session for unregistered mode %q", mode)
			}
			if pomMB<<20>>20 != pomMB {
				t.Fatalf("created a session for pom_mb=%d, whose byte count overflows", pomMB)
			}
			var created struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
				t.Fatal(err)
			}
			rec = httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("GET", "/sessions/"+created.ID+"/metrics", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("metrics on fresh session: status %d", rec.Code)
			}
		case http.StatusBadRequest:
			// The shared TLB has 128 sets per core: a power of two only
			// on a power-of-two core count.
			sharedOK := mode != string(core.SharedL2) || cores&(cores-1) == 0
			if modeOK && sharedOK && cores > 0 && cores <= 256 && pomMB == 0 {
				t.Fatalf("rejected a valid request (mode %q, cores %d): %s", mode, cores, rec.Body.Bytes())
			}
		default:
			t.Fatalf("create session: unexpected status %d (%s)", rec.Code, rec.Body.Bytes())
		}
	})
}

// expectIngest is the reference model of the framing: which status and
// how many whole records an arbitrary body must produce.
func expectIngest(data []byte) (accepted, status int) {
	magic := []byte("POMTRC01")
	if len(data) < len(magic) {
		return 0, http.StatusUnprocessableEntity // short header is a truncation
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		return 0, http.StatusBadRequest
	}
	payload := data[len(magic):]
	for i := 0; (i+1)*16 <= len(payload); i++ {
		if binary.LittleEndian.Uint64(payload[i*16:])>>addr.VABits != 0 {
			return i, http.StatusBadRequest // non-canonical VA
		}
	}
	accepted = len(payload) / 16
	if len(payload)%16 != 0 {
		return accepted, http.StatusUnprocessableEntity
	}
	return accepted, http.StatusAccepted
}

func fuzzEncode(recs []trace.Record) []byte {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		panic(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
