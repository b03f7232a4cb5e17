package engine

import (
	"encoding/json"
	"testing"
)

// BenchmarkParamsJSON encodes and decodes one fully defaulted record, the
// shape every /run answer carries and every /run body sends back in part.
// Run with -benchmem: B/op and allocs/op are the figures it guards.
func BenchmarkParamsJSON(b *testing.B) {
	p := Params{P0: 0.5, Beta0: 0.2, Mode: "double", Seed: 7, N: 10000, Horizon: 600}.MarkExplicit(FieldRate).WithDefaults(Params{GST: 30})
	doc, err := json.Marshal(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := json.Marshal(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if q, err := DecodeParams(doc); err != nil || q != p {
				b.Fatalf("%+v, %v", q, err)
			}
		}
	})
}
