package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// countingTier is an in-memory ResultTier that counts its lookups and
// records every Put. It holds decoded results, so the tests read and plant
// them as values, and speaks payloads at the tier's edge.
type countingTier struct {
	mu   sync.Mutex
	held map[string]Result
	gets int
	puts []Result
}

func newCountingTier() *countingTier { return &countingTier{held: make(map[string]Result)} }

func (t *countingTier) GetPayload(key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gets++
	res, ok := t.held[key]
	if !ok {
		return nil, false
	}
	payload, err := EncodePayload(res)
	return payload, err == nil
}

func (t *countingTier) PutPayload(key string, payload []byte) error {
	res, err := DecodePayload(payload)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.held[key] = res
	t.puts = append(t.puts, res)
	return nil
}

// countingScenario counts how often its defaults are asked for, which is
// once per run plus once per canonical key built for one of its cells. A
// negative N fails the run.
type countingScenario struct{ defaults atomic.Int64 }

func (s *countingScenario) Name() string        { return "count" }
func (s *countingScenario) Description() string { return "counts its defaulting" }
func (s *countingScenario) Defaults() Params {
	s.defaults.Add(1)
	return Params{N: 1}
}
func (s *countingScenario) reads() Field { return FieldAll }
func (s *countingScenario) Run(_ context.Context, p Params) (Result, error) {
	if p.N < 0 {
		return Result{}, errors.New("negative n")
	}
	return Result{Outcome: fmt.Sprintf("ran n=%d", p.N)}, nil
}

func countCell(n int) Cell { return Cell{Scenario: "count", Params: Params{N: n}} }

// TestResultTierContract: the result tier is consulted once, at the top of
// a sweep. Hits come first, stamped Cached; only the misses are computed,
// locally or through Dispatch, and neither looks the tier up again; every
// success is Put without its Meta and no failure is; a cell of an unknown
// scenario is never looked up; Completed runs 1..n over hits and misses.
func TestResultTierContract(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(&countingScenario{})
	// Positions 1 and 4 are held; 2 is unknown; 3 fails.
	cells := []Cell{countCell(1), countCell(2), {Scenario: "nope"}, countCell(-1), countCell(4), countCell(3)}
	held := map[int]bool{1: true, 4: true}
	const resolvable = 5

	for _, dispatched := range []bool{false, true} {
		t.Run(fmt.Sprintf("dispatch=%v", dispatched), func(t *testing.T) {
			tier := newCountingTier()
			for i := range held {
				key, _ := CanonicalCellKey(reg, cells[i])
				tier.held[key] = Result{Scenario: "count", Outcome: "held"}
			}
			opt := Options{Registry: reg, Workers: 2, Results: tier}
			var sent atomic.Int64
			if dispatched {
				opt.Dispatch = func(ctx context.Context, todo []Cell, opt Options) <-chan Update {
					if opt.Results != nil || opt.Dispatch != nil {
						t.Error("Dispatch was handed the result tier or itself")
					}
					sent.Add(int64(len(todo)))
					return SweepStream(ctx, todo, opt)
				}
			}

			var updates []Update
			for u := range SweepStream(context.Background(), cells, opt) {
				updates = append(updates, u)
			}
			if len(updates) != len(cells) {
				t.Fatalf("%d updates for %d cells", len(updates), len(cells))
			}
			seen := make(map[int]bool)
			for k, u := range updates {
				if u.Completed != k+1 || u.Total != len(cells) {
					t.Errorf("update %d: completed %d of %d, want %d of %d", k, u.Completed, u.Total, k+1, len(cells))
				}
				if seen[u.Index] {
					t.Errorf("cell %d emitted twice", u.Index)
				}
				seen[u.Index] = true
				cached := u.Result.Meta != nil && u.Result.Meta.Cached
				if first := k < len(held); first != held[u.Index] || cached != held[u.Index] {
					t.Errorf("update %d (cell %d): cached %v; want the held cells first, each cached", k, u.Index, cached)
				}
				if held[u.Index] && u.Result.Outcome != "held" {
					t.Errorf("held cell %d was recomputed: %+v", u.Index, u.Result)
				}
			}
			if tier.gets != resolvable {
				t.Errorf("the tier was looked up %d times, want once per resolvable cell (%d)", tier.gets, resolvable)
			}
			if dispatched && sent.Load() != int64(len(cells)-len(held)) {
				t.Errorf("Dispatch got %d cells, want the %d misses", sent.Load(), len(cells)-len(held))
			}
			var outcomes []string
			for _, p := range tier.puts {
				if p.Meta != nil || p.Err != "" {
					t.Errorf("Put %+v: want a success without Meta", p)
				}
				outcomes = append(outcomes, p.Outcome)
			}
			if len(outcomes) != 2 || !(outcomes[0] == "ran n=1" && outcomes[1] == "ran n=3" || outcomes[0] == "ran n=3" && outcomes[1] == "ran n=1") {
				t.Errorf("Put %q, want the two computed successes", outcomes)
			}
		})
	}
}

// TestResultTierRunCell: one cell through RunCell takes the same tier
// step: a hit is returned Cached without running, a computed success is
// Put without its Meta, a failure is returned and not Put.
func TestResultTierRunCell(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(&countingScenario{})
	tier := newCountingTier()
	opt := Options{Registry: reg, Results: tier}
	ctx := context.Background()

	res, err := RunCell(ctx, countCell(7), opt)
	if err != nil || res.Meta == nil || res.Meta.Cached || len(tier.puts) != 1 || tier.puts[0].Meta != nil {
		t.Fatalf("miss: %+v, %v; puts %+v", res, err, tier.puts)
	}
	res, err = RunCell(ctx, countCell(7), opt)
	if err != nil || res.Meta == nil || !res.Meta.Cached || res.Outcome != "ran n=7" || len(tier.puts) != 1 {
		t.Fatalf("hit: %+v, %v; %d puts", res, err, len(tier.puts))
	}
	if _, err := RunCell(ctx, countCell(-3), opt); err == nil || len(tier.puts) != 1 {
		t.Fatalf("failure: err %v, %d puts", err, len(tier.puts))
	}
	if tier.gets != 3 {
		t.Errorf("%d lookups for three runs", tier.gets)
	}
}

// TestNoResultTierBuildsNoKey: without a tier a sweep and a cell default
// each cell once, for its run, and build no canonical key.
func TestNoResultTierBuildsNoKey(t *testing.T) {
	sc := &countingScenario{}
	reg := NewRegistry()
	reg.MustRegister(sc)
	cells := []Cell{countCell(1), countCell(2), countCell(3)}
	opt := Options{Registry: reg, Workers: 2}
	if err := FirstError(SweepContext(context.Background(), cells, opt)); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCell(context.Background(), countCell(4), opt); err != nil {
		t.Fatal(err)
	}
	if got := sc.defaults.Load(); got != int64(len(cells)+1) {
		t.Errorf("defaults asked %d times for %d runs: a key was built", got, len(cells)+1)
	}
}

// TestHitAppendsMatchEncoder: a hit written from its payload is the bytes
// encoding/json writes for the decoded hit — as a Result and as the Update
// Stream emits — for results with every field set, HTML-escaped and
// non-ASCII text included.
func TestHitAppendsMatchEncoder(t *testing.T) {
	results := []Result{
		{Scenario: "count"},
		{Scenario: "5.3", Params: Params{P0: 0.5, Beta0: 1.0 / 3, Mode: "a<b>&\"c\" é", Seed: -7, N: 1e6, Rate: 1e-9, GST: 21}.WithDefaults(Params{}),
			Outcome: "beta > 1/3 probably", Metrics: []Metric{{"p", 2.5e-122}, {"q", 1e21}, {"r", -0.0}},
			CurveName: "beta", Curve: []CurvePoint{{1, 0.25}, {2, 1.5e-7}}},
	}
	for _, res := range results {
		payload, err := EncodePayload(Result{Scenario: res.Scenario, Params: res.Params, Outcome: res.Outcome, Metrics: res.Metrics,
			CurveName: res.CurveName, Curve: res.Curve, Meta: &RunMeta{DurationMS: 3}})
		if err != nil {
			t.Fatal(err)
		}
		h := Hit{Index: 4, Payload: payload}
		decoded, err := h.Result()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(decoded)
		if got := h.AppendResult([]byte("x")); string(got) != "x"+string(want) {
			t.Errorf("AppendResult:\n got %s\nwant x%s", got, want)
		}
		want, _ = json.Marshal(Update{Index: 4, Result: decoded, Completed: 9, Total: 12})
		if got := h.AppendUpdate(nil, 9, 12); string(got) != string(want) {
			t.Errorf("AppendUpdate:\n got %s\nwant %s", got, want)
		}
	}
}

// TestDecodePayloadRefusesOtherShapes: DecodePayload takes what
// EncodePayload writes and nothing Hit's appends could not splice.
func TestDecodePayloadRefusesOtherShapes(t *testing.T) {
	for _, bad := range []string{"", "null", "{}", `{"scenario": 42}`, `{"scenario":42}`, `{"scenario":"s"} `,
		`{"scenario":"s","meta":{"cached":true}}`, `{"scenario":"s","metrics":"none"}`, `["scenario"]`} {
		if res, err := DecodePayload([]byte(bad)); err == nil {
			t.Errorf("DecodePayload(%q) = %+v, want an error", bad, res)
		}
	}
	payload, err := EncodePayload(Result{Scenario: "s", Outcome: "ok", Meta: &RunMeta{Cached: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := DecodePayload(payload); err != nil || res.Outcome != "ok" || res.Meta != nil {
		t.Errorf("DecodePayload(%s) = %+v, %v", payload, res, err)
	}
}
