package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"
)

// RunCell executes one cell. It is the one way a cell runs — every job of
// a sweep, RunCheckpointed, Registry.RunContext, gasperleak.Client.Run and
// the server's /run all come through here — and so the one place that
// resolves the cell (resolve), picks the deepest start available, runs,
// and stamps the result with scenario, resolved params and wall-clock
// duration. The starts, deepest first: the finished result
// in opt.Results (returned stamped Cached, nothing run), a prefix the
// caller already holds in memory (the sweep scheduler's snapshot tree), the
// cell's durable checkpoint in opt.Checkpoint (checkpointable scenarios
// only; the run then also persists fresh checkpoints as it goes), genesis.
// A computed success is put to opt.Results. RunCell runs in-process: it
// ignores Workers, WarmStart and Dispatch.
//
// A failure is reported both ways: as the error, and as the Result a sweep
// streams for a failed cell (FailedCell).
func RunCell(ctx context.Context, cell Cell, opt Options) (Result, error) {
	key, payload, hit := lookup(opt.Registry, opt.Results, cell)
	if hit {
		res, err := Hit{Payload: payload}.Result()
		if err != nil {
			return FailedCell(opt.Registry, cell, err), err
		}
		return res, nil
	}
	res, err := runCell(ctx, opt.Registry, cell, opt.Checkpoint, nil, nil)
	save(opt.Results, key, res)
	return res, err
}

// lookup consults a result tier for one cell: its canonical key, and the
// payload on a hit. Without a tier, or for a scenario the registry does not
// hold, no key is built and key is "".
func lookup(reg *Registry, tier ResultTier, cell Cell) (key string, payload []byte, hit bool) {
	if tier == nil {
		return "", nil, false
	}
	key, ok := CanonicalCellKey(reg, cell)
	if !ok {
		return "", nil, false
	}
	payload, hit = tier.GetPayload(key)
	return key, payload, hit
}

// save puts a successful result's payload to the tier under the key lookup
// built; a failure or a cell without a key is not saved.
func save(tier ResultTier, key string, res Result) {
	if key == "" || res.Err != "" {
		return
	}
	if payload, err := EncodePayload(res); err == nil {
		tier.PutPayload(key, payload) //nolint:errcheck // a failed put only costs a future recomputation
	}
}

// EncodePayload returns the payload a result tier holds for res: its
// canonical JSON with Meta stripped.
func EncodePayload(res Result) ([]byte, error) { return json.Marshal(res.WithoutMeta()) }

// DecodePayload decodes a payload in place. It reads the one shape
// EncodePayload writes and Hit's appends rely on: Result's fields in
// declaration order, without whitespace and without Meta. Params are read
// by Params.decodePlain, numbers by strconv, and a string that is not
// plain printable ASCII is one token unquoted by encoding/json. Any other
// document is an error.
func DecodePayload(payload []byte) (Result, error) { return readPayload(payload, true) }

// CheckPayload reports DecodePayload's verdict on a payload without
// building the Result: the check a tier makes before it hands a payload on.
func CheckPayload(payload []byte) error {
	_, err := readPayload(payload, false)
	return err
}

// readPayload reads a payload; into its Result only when build is set.
func readPayload(payload []byte, build bool) (Result, error) {
	r := payloadReader{b: payload, ok: json.Valid(payload), build: build}
	out := Result{Scenario: r.str(`{"scenario":`)}
	if r.lit(`,"params":`) {
		end, ok := out.Params.decodePlain(payload[r.i:])
		r.i, r.ok = r.i+end, ok
	}
	if r.opt(`,"outcome":`) {
		out.Outcome = r.str("")
	}
	if r.opt(`,"metrics":[`) {
		out.Metrics = list(&r, `{"name":`, func() Metric { return Metric{Name: r.str(""), Value: r.num(`,"value":`)} })
	}
	if r.opt(`,"curve_name":`) {
		out.CurveName = r.str("")
	}
	if r.opt(`,"curve":[`) {
		out.Curve = list(&r, `{"x":`, func() CurvePoint { return CurvePoint{X: r.num(""), Y: r.num(`,"y":`)} })
	}
	if r.opt(`,"error":`) {
		out.Err = r.str("")
	}
	if !r.lit(`}`) || r.i != len(payload) {
		return Result{}, errors.New("engine: not a result payload")
	}
	return out, nil
}

// payloadReader reads valid JSON left to right, copying strings and lists
// out only when build is set. Once a read fails, ok stays false and later
// reads do nothing.
type payloadReader struct {
	b         []byte
	i         int
	ok, build bool
}

// opt consumes s if the bytes continue with it.
func (r *payloadReader) opt(s string) bool {
	if r.ok && len(r.b)-r.i >= len(s) && string(r.b[r.i:r.i+len(s)]) == s {
		r.i += len(s)
		return true
	}
	return false
}

// lit consumes s, which the bytes must continue with.
func (r *payloadReader) lit(s string) bool { r.ok = r.opt(s); return r.ok }

// str reads the string after prefix.
func (r *payloadReader) str(prefix string) (s string) {
	if r.lit(prefix) {
		s, r.i, r.ok = jsonString(r.b, r.i, r.build)
	}
	return s
}

// num reads the number after prefix: the bytes up to the first that no
// number holds, parsed by strconv.
func (r *payloadReader) num(prefix string) float64 {
	r.lit(prefix)
	j := len(r.b) - len(bytes.TrimLeft(r.b[r.i:], "-+.eE0123456789"))
	x, err := strconv.ParseFloat(string(r.b[r.i:j]), 64)
	r.i, r.ok = j, r.ok && err == nil
	return x
}

// list reads a list up to its closing bracket: elements that open with
// head, each read by elem up to its closing brace.
func list[T any](r *payloadReader, head string, elem func() T) (out []T) {
	if r.build {
		out = make([]T, 0, bytes.Count(r.b[r.i:], []byte(head)))
	}
	for more := true; more; more = r.opt(",") {
		r.lit(head)
		if e := elem(); r.lit("}") && r.build {
			out = append(out, e)
		}
	}
	r.lit("]")
	return out
}

// Hit is a cell the result tier answered (Prepare): its position in the
// sweep and the payload the tier holds for it.
type Hit struct {
	Index   int
	Payload []byte
}

// cachedMeta closes a hit's result: the Meta every hit carries, written as
// encoding/json writes Result's last field.
const cachedMeta = `,"meta":{"cached":true}}`

// Result decodes the hit, stamped Cached.
func (h Hit) Result() (Result, error) {
	res, err := DecodePayload(h.Payload)
	if err != nil {
		return Result{}, err
	}
	res.Meta = &RunMeta{Cached: true}
	return res, nil
}

// AppendResult appends the hit's Result as encoding/json writes it, without
// decoding the payload: a payload EncodePayload wrote is that encoding
// without Meta, Result's last field, so the hit's Meta goes in place of the
// closing brace. dst grows at most once for the two.
func (h Hit) AppendResult(dst []byte) []byte {
	dst = slices.Grow(dst, len(h.Payload)+len(cachedMeta))
	return append(append(dst, h.Payload[:len(h.Payload)-1]...), cachedMeta...)
}

// AppendUpdate appends the hit's Update as encoding/json writes it, given
// its Completed and Total.
func (h Hit) AppendUpdate(dst []byte, completed, total int) []byte {
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(h.Index), 10)
	dst = h.AppendResult(append(dst, `,"result":`...))
	dst = strconv.AppendInt(append(dst, `,"completed":`...), int64(completed), 10)
	return append(strconv.AppendInt(append(dst, `,"total":`...), int64(total), 10), '}')
}

// runCell is RunCell below the result tier, plus the in-memory tier: a
// cell its spine hands a prefix (pre) or the spine's failure (preErr)
// resumes from that prefix or fails with that error. Such a cell skips the
// durable tier — the prefix is shared with its group, not the cell's own
// to persist. A cell gets Meta exactly when it started: it resolved, its
// horizon was valid and its context was live.
func runCell(ctx context.Context, reg *Registry, cell Cell, ck *CheckpointOptions, pre *Prefix, preErr error) (Result, error) {
	if reg == nil {
		reg = Default
	}
	sc, p, ok := resolve(reg, cell)
	if !ok {
		err := reg.unknown(cell.Scenario)
		return FailedCell(reg, cell, err), err
	}
	if p.Horizon < 0 {
		// The engines count epochs unsigned: a negative horizon would wrap
		// to a run of ~2^64 epochs.
		err := fmt.Errorf("engine: horizon = %d, want >= 0", p.Horizon)
		return FailedCell(reg, cell, err), err
	}
	if err := ctx.Err(); err != nil {
		// Cancelled before the cell started: no Meta — no work was done.
		return FailedCell(reg, cell, err), err
	}

	start := time.Now() //gasper:nondet wall-clock duration metadata only; never part of result identity
	var res Result
	var err error
	var ckMeta *CheckpointMeta
	simulated := 0
	if preErr != nil {
		err = preErr
	} else if pre != nil {
		res, err = sc.(CheckpointableScenario).ResumeFrom(ctx, pre, p)
	} else if cs, branch, ok := checkpointable(sc, p, ck); ok {
		ckMeta = &CheckpointMeta{}
		res, simulated, err = runFromCheckpoint(ctx, cs, p, branch, CellKey(cell.Scenario, p), ck, ckMeta)
	} else {
		res, err = sc.Run(ctx, p)
	}
	if err == nil {
		err = nonFinite(res)
	}
	if err != nil {
		res = FailedCell(reg, cell, err)
	} else {
		res.Scenario, res.Params = sc.Name(), p
	}
	res.Meta = RunMeta{
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond), //gasper:nondet wall-clock duration metadata only; never part of result identity
		Checkpoint: ckMeta,
	}.Merged(res.Meta)
	// The scenario stamped throughput over ResumeFrom's tail alone; under
	// the durable tier the runner's hops did the work, so restate it
	// over the whole wall clock. Like warm start, a resumed cell counts the
	// epochs its checkpoint skipped — effective throughput.
	if secs := res.Meta.DurationMS / 1000; simulated > 0 && secs > 0 {
		res.Meta.EpochsPerSec = float64(simulated) / secs
	}
	return res, err
}

// nonFinite names the first metric or curve sample of res that is NaN or
// infinite: JSON has no such number, so the cell could be neither stored
// nor answered, and it fails instead.
func nonFinite(res Result) error {
	for _, m := range res.Metrics {
		if !finite(m.Value) {
			return fmt.Errorf("engine: metric %q is %v", m.Name, m.Value)
		}
	}
	for _, pt := range res.Curve {
		if !finite(pt.X) || !finite(pt.Y) {
			return fmt.Errorf("engine: curve %q has the point (%v, %v)", res.CurveName, pt.X, pt.Y)
		}
	}
	return nil
}

// FailedCell is the Result of a cell that could not run to completion:
// scenario, the params resolved when the scenario does (so the record
// documents the run it attempted), and Err. A nil registry is Default.
func FailedCell(reg *Registry, cell Cell, err error) Result {
	_, p, _ := resolve(reg, cell)
	return Result{Scenario: cell.Scenario, Params: p, Err: err.Error()}
}
