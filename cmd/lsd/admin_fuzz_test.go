package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/pkg/loadshed"
)

// FuzzAdminQueries sends arbitrary POST /queries requests — body,
// content type and query string, what any client of the admin plane
// controls — through the handler. Nothing may panic, the answer is 202,
// 400, 409 or 413, and the registry grows by one query on 202 and not
// at all otherwise: a run of the system afterwards starts with its
// counter query plus exactly the ones the handler accepted.
func FuzzAdminQueries(f *testing.F) {
	f.Add([]byte(`{"kind": "autofocus", "seed": 7}`), "application/json", "")
	f.Add([]byte(`{"kind": "autofocus"`), "application/json; charset=utf-8", "")
	f.Add([]byte(`{"kind": "no-such-kind"}`), "application/json", "")
	f.Add([]byte(`{"kind": 5}`), "application/json", "kind=counter")
	f.Add([]byte("kind=p2p-detector"), "application/x-www-form-urlencoded", "")
	f.Add([]byte(""), "", "kind=top-k")
	f.Add([]byte(""), "", "kind=%zz")
	f.Add([]byte("kind=flows&pad="+strings.Repeat("x", maxQueryBody)), "application/x-www-form-urlencoded", "")
	f.Add([]byte(`{"kind": "flows", "pad": "`+strings.Repeat("x", maxQueryBody)+`"}`), "application/json", "")

	f.Fuzz(func(t *testing.T, body []byte, contentType, query string) {
		req, err := http.NewRequest("POST", "http://lsd/queries?"+query, bytes.NewReader(body))
		if err != nil {
			return // not a request a client could send
		}
		req.Header.Set("Content-Type", contentType)
		sys := loadshed.New(loadshed.Config{Seed: 1, Workers: 1}, []loadshed.Query{loadshed.NewCounter(loadshed.QueryConfig{Seed: 1})})
		rec := httptest.NewRecorder()
		adminMux(sys, loadshed.NewRollingStats(10), nil, 1, nil, "").ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("POST /queries?%q (Content-Type %q, %d-byte body) answered %d: %s", query, contentType, len(body), rec.Code, rec.Body)
		}
		want := 1
		if rec.Code == http.StatusAccepted {
			want++
		}
		if got := sys.Run(trace.NewMemorySource(nil, time.Second)).Queries; len(got) != want {
			t.Fatalf("answered %d and the registry holds %q, want %d queries", rec.Code, got, want)
		}
	})
}
