package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// hopGrid is bench/servemix.go's sweep: the 30-cell sim/gst grid — 15
// horizons x 2 GSTs that never heal inside a horizon, one prefix group —
// at 1,000 validators.
func hopGrid() []engine.Cell {
	horizons := make([]int, 0, 15)
	for h := 8; h <= 22; h++ {
		horizons = append(horizons, h)
	}
	return engine.Grid{
		Scenario: "sim/gst",
		P0:       []float64{0.5},
		GSTs:     []int{30, 40},
		Horizons: horizons,
		N:        1000,
	}.Cells()
}

// benchServer starts a server with no result tier of any kind, so every
// iteration computes.
func benchServer(b *testing.B, cfg Config) string {
	b.Helper()
	cfg.CacheSize = -1
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return ts.URL
}

// BenchmarkSweepThroughCoordinator measures what scale-out costs a sweep
// that shares a prefix: "direct" posts the warm grid to one server, "hop"
// to a coordinator over two one-worker servers — one more HTTP hop and one
// more JSON round trip per cell, and nothing else, because the coordinator
// ships the prefix group as one unit and the worker that gets it simulates
// the 22-epoch spine once, as the direct server does. Dispatched cell by cell
// the fabric simulates the sum of the horizons, 450 epochs. CI gates hop >=
// 0.5x direct cells/sec and hop <= 3x direct B/op (cmd/benchgate/gates.json;
// B/op counts the whole process, workers included), and the two payloads are
// asserted identical.
func BenchmarkSweepThroughCoordinator(b *testing.B) {
	cells := hopGrid()
	body, err := json.Marshal(map[string]any{"cells": cells})
	if err != nil {
		b.Fatal(err)
	}
	sweep := func(b *testing.B, url string) []engine.Result {
		b.Helper()
		var last []engine.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			last = make([]engine.Result, len(cells))
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var u engine.Update
				if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
					b.Fatal(err)
				}
				last[u.Index] = u.Result
			}
			resp.Body.Close()
			if err := sc.Err(); err != nil {
				b.Fatal(err)
			}
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N*len(cells))/secs, "cells/sec")
		}
		for i, r := range last {
			if r.Err != "" || r.Scenario == "" {
				b.Fatalf("cell %d: %+v", i, r)
			}
		}
		return last
	}

	var direct, hop []engine.Result
	b.Run("direct", func(b *testing.B) {
		direct = sweep(b, benchServer(b, Config{Workers: 2, WarmStart: true}))
	})
	b.Run("hop", func(b *testing.B) {
		shards := []string{benchServer(b, Config{Workers: 1}), benchServer(b, Config{Workers: 1})}
		hop = sweep(b, benchServer(b, Config{Workers: 2, WarmStart: true, Shards: shards}))
	})
	if direct != nil && hop != nil && !reflect.DeepEqual(engine.StripMeta(direct), engine.StripMeta(hop)) {
		b.Fatal("the coordinator's payload diverges from the direct server's")
	}
}

// BenchmarkServeHit measures one POST /run answered from a primed LRU, the
// path each of serve-mix's 2,500 hits takes: body decode, the cell's key,
// the tier lookup, the response encode. It goes through Handler() into an
// httptest.ResponseRecorder, so no socket or HTTP framing is counted. CI
// gates its allocs/op and B/op (cmd/benchgate/gates.json).
func BenchmarkServeHit(b *testing.B) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	body := []byte(`{"scenario":"analytic/conflict","params":{"p0":0.3}}`)
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	serve() // prime the LRU
	var rec *httptest.ResponseRecorder
	b.ReportAllocs()
	for b.Loop() {
		rec = serve()
	}
	if !strings.Contains(rec.Body.String(), `"cached":true`) {
		b.Fatalf("a primed /run was not answered from the LRU: %s", rec.Body)
	}
}
