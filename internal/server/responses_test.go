package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var writeResponses = flag.Bool("write-responses", false,
	"rewrite testdata/responses.json and testdata/response-bytes.json from this build's answers to their fixed request sets")

// exchange is one request of the fixed set and what came back: the status
// and every body line (one for /run and errors, one per update for /sweep)
// with its "meta" removed, beside the cached flag that meta carried.
type exchange struct {
	Request string     `json:"request"`
	Status  int        `json:"status"`
	Lines   []answered `json:"lines"`
}

type answered struct {
	Cached bool            `json:"cached"`
	Body   json.RawMessage `json:"body"`
}

// stripMeta removes the meta object from a /run body or from the result
// of a /sweep update, returning the line without it and its cached flag.
func stripMeta(t *testing.T, line []byte) answered {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(line, &doc); err != nil {
		t.Fatalf("line %s: %v", line, err)
	}
	target := doc
	if raw, ok := doc["result"]; ok {
		target = nil
		if err := json.Unmarshal(raw, &target); err != nil {
			t.Fatal(err)
		}
	}
	var meta struct {
		Cached bool `json:"cached"`
	}
	if raw, ok := target["meta"]; ok {
		if err := json.Unmarshal(raw, &meta); err != nil {
			t.Fatal(err)
		}
		delete(target, "meta")
	}
	if _, ok := doc["result"]; ok {
		raw, err := json.Marshal(target)
		if err != nil {
			t.Fatal(err)
		}
		doc["result"] = raw
	}
	body, err := json.Marshal(doc) // encoding/json writes a map's keys sorted
	if err != nil {
		t.Fatal(err)
	}
	return answered{Cached: meta.Cached, Body: body}
}

// keyPaths appends every key path of a decoded JSON document to out.
func keyPaths(prefix string, v any, out *[]string) {
	if m, ok := v.(map[string]any); ok {
		for k, sub := range m {
			*out = append(*out, prefix+k)
			keyPaths(prefix+k+".", sub, out)
		}
	}
}

// TestResponsesMatchFixture: a fixed request set — /run uncached, cached,
// read back from the store by a second server, and refused; /sweep cold,
// fully cached, partly cached, and through a two-worker coordinator —
// answers with the bytes (meta removed), cached flags and order that
// testdata/responses.json records, which the server wrote while the LRU and
// store were consulted by the handlers themselves. The /metrics and
// /healthz key sets and the cells counters are pinned beside them.
func TestResponsesMatchFixture(t *testing.T) {
	dir := t.TempDir()
	first := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	second := newTestServer(t, Config{Workers: 1, StoreDir: dir, CacheSize: 4})
	workers := []string{newTestServer(t, Config{Workers: 1}).URL, newTestServer(t, Config{Workers: 1}).URL}
	coord := newTestServer(t, Config{Workers: 1, Shards: workers})

	const (
		conflict  = `{"scenario":"analytic/conflict","params":{"p0":0.3}}`
		partition = `{"scenario":"sim/partition","params":{"n":8,"horizon":3,"rate":0}}`
		gstSweep  = `{"scenario":"sim/gst","sweep":"horizon=4,6; gst=2,30","params":{"n":16}}`
		mixed     = `{"cells":[{"scenario":"sim/partition","params":{"n":8,"horizon":3,"rate":0}},{"scenario":"sim/partition","params":{"n":8,"horizon":5}},{"scenario":"nope"},{"scenario":"sim/partition","params":{"n":-4}},{"scenario":"analytic/conflict","params":{"p0":0.3}}]}`
	)
	requests := []struct{ server, path, body string }{
		{"first", "/run", conflict},
		{"first", "/run", conflict},
		{"first", "/run", partition},
		{"first", "/run", partition},
		{"first", "/run", `{"scenario":"nope"}`},
		{"first", "/run", `{"scenario":"sim/partition","params":{"n":-4}}`},
		{"first", "/sweep", gstSweep},
		{"first", "/sweep", gstSweep},
		{"first", "/sweep", mixed},
		{"second", "/run", partition},
		{"second", "/sweep", mixed},
		{"coord", "/sweep", mixed},
		{"coord", "/sweep", `{"scenario":"sim/gst","sweep":"horizon=4,6; gst=2,30","params":{"n":16},"warm":true}`},
		{"coord", "/sweep", mixed},
	}
	urls := map[string]string{"first": first.URL, "second": second.URL, "coord": coord.URL}

	var got []exchange
	for _, rq := range requests {
		resp, err := http.Post(urls[rq.server]+rq.path, "application/json", strings.NewReader(rq.body))
		if err != nil {
			t.Fatal(err)
		}
		ex := exchange{Request: rq.server + " " + rq.path + " " + rq.body, Status: resp.StatusCode}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			ex.Lines = append(ex.Lines, stripMeta(t, sc.Bytes()))
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		got = append(got, ex)
	}
	for _, name := range []string{"first", "second", "coord"} {
		for _, path := range []string{"/metrics", "/healthz"} {
			resp, err := http.Get(urls[name] + path)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			var keys []string
			keyPaths("", doc, &keys)
			slices.Sort(keys)
			body, err := json.Marshal(map[string]any{"keys": keys, "cells": doc["cells"]})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, exchange{Request: name + " GET " + path, Status: resp.StatusCode, Lines: []answered{{Body: body}}})
		}
	}

	encoded, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	encoded = append(encoded, '\n')
	if *writeResponses {
		if err := os.WriteFile("testdata/responses.json", encoded, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/responses.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded, want) {
		var fixture []exchange
		if err := json.Unmarshal(want, &fixture); err != nil {
			t.Fatal(err)
		}
		for i := range max(len(got), len(fixture)) {
			switch {
			case i >= len(got) || i >= len(fixture):
				t.Errorf("%d exchanges, fixture has %d", len(got), len(fixture))
			default:
				g, _ := json.Marshal(got[i])
				f, _ := json.Marshal(fixture[i])
				if !bytes.Equal(g, f) {
					t.Errorf("exchange %d (%s):\n got %s\nwant %s", i, got[i].Request, g, f)
				}
			}
		}
	}
}

// rawExchange is one request of TestResponseBytesMatchFixture and the whole
// answer: status, Content-Type and the body bytes, trailing newlines
// included, with only the wall clock masked (clockFields).
type rawExchange struct {
	Request     string `json:"request"`
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	Body        string `json:"body"`
}

// clockFields matches the meta values that measure wall clock.
var clockFields = regexp.MustCompile(`"(duration_ms|epochs_per_sec)":[-+.eE0-9]+`)

// TestResponseBytesMatchFixture pins the full bytes of the answers the
// result tier gives — a /run miss, its LRU hit and its store hit read by a
// second server, a /sweep answered wholly from the LRU and one answered
// partly — as testdata/response-bytes.json records them. Unlike
// TestResponsesMatchFixture it keeps every byte: the meta object, key
// order, escaping and the newline after each body or line.
func TestResponseBytesMatchFixture(t *testing.T) {
	dir := t.TempDir()
	first := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	second := newTestServer(t, Config{Workers: 1, StoreDir: dir})

	const (
		conflict = `{"scenario":"analytic/conflict","params":{"p0":0.3}}`
		gstSweep = `{"scenario":"sim/gst","sweep":"horizon=4,6; gst=2,30","params":{"n":16}}`
		partly   = `{"cells":[{"scenario":"analytic/conflict","params":{"p0":0.3}},{"scenario":"analytic/conflict","params":{"p0":0.4,"mode":"semi"}},{"scenario":"sim/gst","params":{"n":16,"horizon":6,"gst":30}}]}`
	)
	requests := []struct {
		server, path, body string
		record             bool
	}{
		{"first", "/run", conflict, true},  // miss
		{"first", "/run", conflict, true},  // LRU hit
		{"second", "/run", conflict, true}, // store hit, promoted
		{"second", "/run", conflict, true}, // promoted: LRU hit
		{"first", "/run", `{"scenario":"5.2.3"}`, false},
		{"first", "/run", `{"scenario":"5.2.3"}`, true}, // an escaped outcome
		{"first", "/sweep", gstSweep, false},
		{"first", "/sweep", gstSweep, true}, // all from the LRU
		{"first", "/sweep", partly, true},   // two hits, one miss
	}
	urls := map[string]string{"first": first.URL, "second": second.URL}
	var got []rawExchange
	for _, rq := range requests {
		resp, err := http.Post(urls[rq.server]+rq.path, "application/json", strings.NewReader(rq.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rq.record {
			got = append(got, rawExchange{
				Request:     rq.server + " " + rq.path + " " + rq.body,
				Status:      resp.StatusCode,
				ContentType: resp.Header.Get("Content-Type"),
				Body:        string(clockFields.ReplaceAll(body, []byte(`"$1":"clock"`))),
			})
		}
	}

	encoded, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	encoded = append(encoded, '\n')
	if *writeResponses {
		if err := os.WriteFile("testdata/response-bytes.json", encoded, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/response-bytes.json")
	if err != nil {
		t.Fatal(err)
	}
	var fixture []rawExchange
	if err := json.Unmarshal(want, &fixture); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fixture) {
		t.Fatalf("%d exchanges, fixture has %d", len(got), len(fixture))
	}
	for i := range got {
		if got[i] != fixture[i] {
			t.Errorf("exchange %d (%s):\n got %d %q %q\nwant %d %q %q", i, got[i].Request,
				got[i].Status, got[i].ContentType, got[i].Body, fixture[i].Status, fixture[i].ContentType, fixture[i].Body)
		}
	}
}
