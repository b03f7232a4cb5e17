package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// DefaultShardInflight bounds concurrently dispatched units per worker
// when Config.ShardInflight is 0.
const DefaultShardInflight = 2

// maxUnitCells cuts a prefix group into requests a worker's default bounds
// admit: 256 explicit cells are a ~40 kB body against DefaultMaxBodyBytes
// and a sixteenth of DefaultQueueDepth.
const maxUnitCells = 256

// maxStreamLine bounds one NDJSON line of a worker's stream.
const maxStreamLine = 16 << 20

// A worker that answers 429 is full, not gone: its unit goes back on the
// queue, the dispatching goroutine sits out the worker's Retry-After (at
// most maxRetryAfter — the header is outside input), and only maxRefusals
// refusals in a row retire the worker.
const (
	maxRetryAfter = time.Second
	maxRefusals   = 3
)

// worker is one remote serve process the coordinator dispatches to.
type worker struct {
	url  string
	dead atomic.Bool
	// served counts the cells this worker answered, failed the dispatches
	// that retired it.
	served atomic.Uint64
	failed atomic.Uint64
}

// coordinator is the scale-out half of the sweep fabric: with
// Config.Shards set, the server stops computing sweep cells in-process and
// instead dispatches them — unit by unit, each unit one multi-cell request
// over the same NDJSON POST /sweep wire protocol every serve instance
// already speaks — to a set of worker processes (a plain `serve` instance is
// a valid worker). What a unit is follows the sweep (units): warm-started, it
// is a prefix group, so the cells that share a simulated prefix land on one
// worker and that worker simulates the prefix once; cold, it is one cell.
// Cells are independent and seed-deterministic, so the scheduling policy is
// free: bounded in-flight units per worker, a worker's stream read as it
// arrives, dead or stalled workers requeue the cells they had not yet
// answered onto the survivors, and when every worker is gone the
// coordinator computes the remainder itself. Results are merged in
// deterministic cell order, so the client-visible stream is bit-identical
// (Meta aside) to a single-process run for any worker set and any
// failure/requeue schedule.
type coordinator struct {
	workers     []*worker
	inflight    int           // per-worker concurrent units
	cellTimeout time.Duration // longest wait for a stream's next update; 0 = unbounded
	client      *http.Client
	metrics     *metrics
}

// newCoordinator validates the worker URLs and builds the dispatcher.
func newCoordinator(shards []string, inflight int, cellTimeout time.Duration, m *metrics) (*coordinator, error) {
	if inflight <= 0 {
		inflight = DefaultShardInflight
	}
	c := &coordinator{
		inflight:    inflight,
		cellTimeout: cellTimeout,
		client:      &http.Client{},
		metrics:     m,
	}
	for _, raw := range shards {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("server: shard worker %q is not an absolute URL", raw)
		}
		c.workers = append(c.workers, &worker{url: strings.TrimRight(raw, "/")})
	}
	if len(c.workers) == 0 {
		return nil, fmt.Errorf("server: coordinator mode wants at least one worker URL")
	}
	return c, nil
}

// workerStats is the per-worker slice of GET /metrics.
type workerStats struct {
	URL    string `json:"url"`
	Dead   bool   `json:"dead"`
	Served uint64 `json:"served"`
	Failed uint64 `json:"failed"`
}

func (c *coordinator) stats() []workerStats {
	out := make([]workerStats, len(c.workers))
	for i, w := range c.workers {
		out[i] = workerStats{URL: w.url, Dead: w.dead.Load(), Served: w.served.Load(), Failed: w.failed.Load()}
	}
	return out
}

// dispatch implements engine.DispatchFunc: it streams one Update per cell
// in CELL ORDER (index-ascending), buffering out-of-order completions —
// the ordering is what makes the coordinator's output deterministic for
// any worker set and any failure/requeue schedule.
func (c *coordinator) dispatch(ctx context.Context, cells []engine.Cell, opt engine.Options) <-chan engine.Update {
	out := make(chan engine.Update)
	go func() {
		defer close(out)
		c.run(ctx, cells, opt, out)
	}()
	return out
}

type indexedResult struct {
	i   int
	res engine.Result
}

// units splits a sweep into the coordinator's units of dispatch, each the
// cell indices of one request. Warm-started, a unit is a prefix group
// (engine.PrefixGroups — the grouping the worker's own scheduler will
// plan), cut at maxUnitCells; without warm start sharing a worker buys a
// cell nothing, and every cell is a unit of one.
func units(cells []engine.Cell, opt engine.Options) [][]int {
	var out [][]int
	if opt.WarmStart == nil {
		for i := range cells {
			out = append(out, []int{i})
		}
		return out
	}
	for _, g := range engine.PrefixGroups(opt.Registry, cells) {
		for rest := g.Cells; len(rest) > 0; {
			k := min(len(rest), maxUnitCells)
			out = append(out, rest[:k])
			rest = rest[k:]
		}
	}
	return out
}

func (c *coordinator) run(ctx context.Context, cells []engine.Cell, opt engine.Options, out chan<- engine.Update) {
	n := len(cells)
	if n == 0 {
		return
	}
	results := make([]*engine.Result, n)
	emitted := 0
	emitInOrder := func() {
		for emitted < n && results[emitted] != nil {
			out <- engine.Update{Index: emitted, Result: *results[emitted], Completed: emitted + 1, Total: n}
			emitted++
		}
	}

	// Remote phase. jobs holds every unit not yet in a worker's hands; a
	// refused or failed dispatch puts back at most the one unit it took, so
	// the channel never holds more than the initial count. finished takes
	// each cell once — a stream delivers a cell at most once and only
	// undelivered cells are requeued — so a worker is never blocked on the
	// collector.
	todo := units(cells, opt)
	jobs := make(chan []int, len(todo))
	for _, u := range todo {
		jobs <- u
	}
	finished := make(chan indexedResult, n)
	quit := make(chan struct{})
	var quitOnce sync.Once
	stop := func() { quitOnce.Do(func() { close(quit) }) }

	var alive atomic.Int64
	for _, w := range c.workers {
		if !w.dead.Load() {
			alive.Add(1)
		}
	}
	if alive.Load() == 0 {
		stop()
	}

	var wg sync.WaitGroup
	for _, w := range c.workers {
		if w.dead.Load() {
			continue
		}
		for k := 0; k < c.inflight; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				refusals := 0
				for {
					select {
					case <-quit:
						return
					case <-ctx.Done():
						return
					case unit := <-jobs:
						if w.dead.Load() {
							jobs <- unit
							return
						}
						c.metrics.remoteInflight.Add(1)
						rest, err := c.runUnit(ctx, w, cells, unit, opt, func(i int, res engine.Result) {
							w.served.Add(1)
							c.metrics.cellsRemote.Add(1)
							finished <- indexedResult{i, res}
						})
						c.metrics.remoteInflight.Add(-1)
						if err == nil {
							refusals = 0
							continue
						}
						if ctx.Err() != nil {
							return // the caller gave up; the worker did nothing wrong
						}
						var busy busyError
						if errors.As(err, &busy) && refusals+1 < maxRefusals {
							refusals++
							jobs <- rest // refused whole
							select {
							case <-time.After(time.Duration(busy)):
							case <-quit:
							case <-ctx.Done():
							}
							continue
						}
						// The worker failed, stalled or stayed full: it is
						// retired, and the cells it had not answered go back
						// on the queue for the survivors — in that order, or
						// this worker's other goroutines could take them.
						// Retrying is always safe: cells are
						// seed-deterministic, so a survivor (or the local
						// fallback) computes the identical payload.
						w.failed.Add(1)
						c.metrics.cellsRequeued.Add(uint64(len(rest)))
						lost := w.dead.CompareAndSwap(false, true)
						if len(rest) > 0 {
							jobs <- rest
						}
						if lost {
							c.metrics.workersLost.Add(1)
							if alive.Add(-1) == 0 {
								stop()
							}
						}
						return
					}
				}
			}()
		}
	}

	remaining := n
collect:
	for remaining > 0 {
		select {
		case r := <-finished:
			results[r.i] = &r.res
			remaining--
			emitInOrder()
		case <-quit: // every worker died; fall through to the local phase
			break collect
		case <-ctx.Done():
			break collect
		}
	}
	stop()
	wg.Wait()

	// Drain stragglers a worker finished after the collector left the
	// loop, then gather the cells nobody served.
	for {
		select {
		case r := <-finished:
			results[r.i] = &r.res
			continue
		default:
		}
		break
	}
	var leftover []int
	for {
		select {
		case unit := <-jobs:
			leftover = append(leftover, unit...)
			continue
		default:
		}
		break
	}
	sort.Ints(leftover)

	// Local fallback: with no workers left, the coordinator is still a
	// complete serve process — finish the grid in-process so a total
	// worker outage degrades throughput, not correctness.
	if len(leftover) > 0 && ctx.Err() == nil {
		local := make([]engine.Cell, len(leftover))
		for k, i := range leftover {
			local[k] = cells[i]
		}
		for u := range engine.SweepStream(ctx, local, opt) {
			res := u.Result
			if res.Err == "" && res.Meta != nil {
				c.metrics.recordComputed(res.Scenario, res.Meta.DurationMS)
			}
			results[leftover[u.Index]] = &res
			emitInOrder()
		}
	}

	// Whatever is still unserved (cancellation) is marked with the
	// context error, exactly as the in-process sweep marks unstarted
	// cells.
	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i] == nil {
				res := engine.FailedCell(opt.Registry, cells[i], err)
				results[i] = &res
			}
		}
	}
	emitInOrder()
}

// busyError is a worker's 429: full, and asking to be asked again after
// this long.
type busyError time.Duration

func (e busyError) Error() string {
	return fmt.Sprintf("queue full, retry after %v", time.Duration(e))
}

// runUnit executes one unit on a remote worker as one request of the
// standard NDJSON /sweep protocol, handing each cell's result to deliver —
// keyed by the cell's index in the sweep — as its line arrives. It is the
// only way a cell reaches a worker: a cold cell is a unit of one. On any
// transport-level trouble — refused connection, non-200 status (a 429 as a
// busyError), a stream readUnitStream condemns, or no update for
// cellTimeout — it returns the cells whose updates had not arrived beside
// the error; what was delivered before stands. A result whose own Err is set
// (an invalid cell) is a legitimate payload and passes through, identical to
// what a local run would produce.
func (c *coordinator) runUnit(ctx context.Context, w *worker, cells []engine.Cell, unit []int, opt engine.Options, deliver func(i int, res engine.Result)) (undelivered []int, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The stall bound: armed here for the first update, re-armed by every
	// update that arrives.
	var stall *time.Timer
	if c.cellTimeout > 0 {
		stall = time.AfterFunc(c.cellTimeout, cancel)
		defer stall.Stop()
	}
	sent := make([]engine.Cell, len(unit))
	for k, i := range unit {
		sent[k] = cells[i]
	}
	body, err := json.Marshal(sweepRequest{Cells: sent, Warm: boolPtr(opt.WarmStart != nil)})
	if err != nil {
		return unit, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/sweep", bytes.NewReader(body))
	if err != nil {
		return unit, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.metrics.unitsDispatched.Add(1)
	resp, err := c.client.Do(req)
	if err != nil {
		return unit, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		wait := maxRetryAfter
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 && secs < int(maxRetryAfter/time.Second) {
			wait = time.Duration(secs) * time.Second
		}
		return unit, fmt.Errorf("worker %s: %w", w.url, busyError(wait))
	default:
		return unit, fmt.Errorf("worker %s: status %d", w.url, resp.StatusCode)
	}
	missing, err := readUnitStream(resp.Body, sent, func(pos int, res engine.Result) {
		if stall != nil {
			stall.Reset(c.cellTimeout)
		}
		deliver(unit[pos], res)
	})
	for k, pos := range missing {
		missing[k] = unit[pos]
	}
	if err != nil {
		err = fmt.Errorf("worker %s: %w", w.url, err)
	}
	return missing, err
}

// readUnitStream reads a worker's NDJSON answer to the cells sent and hands
// each update to deliver, keyed by the cell's position in sent, the moment
// its line is complete. The stream is outside input: it is accepted only as
// exactly one update per cell — index inside the unit, not seen before,
// Result.Scenario equal to the scenario sent at that index. The first line
// that breaks the rule, does not decode or exceeds maxStreamLine, a read
// error, and an end of stream before the last cell each condemn the stream:
// readUnitStream then returns the positions no update arrived for,
// ascending, beside the error. Updates delivered before that stand, and a
// line after the last cell condemns the stream with nothing missing.
func readUnitStream(r io.Reader, sent []engine.Cell, deliver func(pos int, res engine.Result)) (missing []int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4<<10), maxStreamLine)
	seen := make([]bool, len(sent))
	for err == nil && sc.Scan() {
		var u engine.Update
		switch jerr := json.Unmarshal(sc.Bytes(), &u); {
		case jerr != nil:
			err = fmt.Errorf("bad NDJSON line: %w", jerr)
		case u.Index < 0 || u.Index >= len(sent):
			err = fmt.Errorf("update for cell %d of a %d-cell unit", u.Index, len(sent))
		case seen[u.Index]:
			err = fmt.Errorf("second update for cell %d", u.Index)
		case u.Result.Scenario != sent[u.Index].Scenario:
			err = fmt.Errorf("cell %d sent as %q, answered as %q", u.Index, sent[u.Index].Scenario, u.Result.Scenario)
		default:
			seen[u.Index] = true
			deliver(u.Index, u.Result)
		}
	}
	if err == nil {
		err = sc.Err()
	}
	for pos, ok := range seen {
		if !ok {
			missing = append(missing, pos)
		}
	}
	if err == nil && len(missing) > 0 {
		err = fmt.Errorf("stream ended %d of %d cells short", len(missing), len(sent))
	}
	return missing, err
}

func boolPtr(b bool) *bool { return &b }
