package server

import (
	"sort"
	"sync"
	"sync/atomic"
)

// metrics aggregates the fabric's observability counters, served by
// GET /metrics: where cells were answered from (computed vs cache tiers),
// admission-control pressure (queue depth, in-flight, rejections), the
// coordinator's dispatch ledger, and per-scenario compute-time sums.
type metrics struct {
	// Cells answered by each tier, across /run and /sweep; the LRU counts
	// its own hits (resultCache.stats).
	cellsComputed  atomic.Uint64
	cellsFromStore atomic.Uint64

	// Admission control: cells currently admitted (queued or in flight)
	// and requests refused with 429.
	admitted atomic.Int64
	rejected atomic.Uint64

	// Coordinator ledger (zero when the server is a plain worker).
	unitsDispatched atomic.Uint64 // requests sent to workers (cells_remote / this = the sharing)
	cellsRemote     atomic.Uint64 // cells computed by a remote worker
	cellsRequeued   atomic.Uint64 // cells requeued off a failed/slow worker
	workersLost     atomic.Uint64 // workers marked dead
	remoteInflight  atomic.Int64  // units currently dispatched to workers

	// Durable-checkpoint ledger (zero without a checkpoint store).
	cellsResumed          atomic.Uint64 // cells resumed from an on-disk checkpoint
	checkpointEpochsSaved atomic.Uint64 // epochs those resumes did not re-simulate

	mu       sync.Mutex
	scenario map[string]*scenarioTiming // per-scenario compute sums
}

// scenarioTiming sums computed-cell wall clock per scenario.
type scenarioTiming struct {
	Cells   uint64  `json:"cells"`
	TotalMS float64 `json:"total_ms"`
}

// namedScenarioTiming is one row of the /metrics scenarios block: a
// scenario's timing sums tagged with its name. Rows render as a
// name-sorted array rather than a JSON object, so the byte order of the
// response is fixed by construction instead of by the JSON encoder's
// map-key handling.
type namedScenarioTiming struct {
	Name string `json:"name"`
	scenarioTiming
}

func newMetrics() *metrics {
	return &metrics{scenario: make(map[string]*scenarioTiming)}
}

// recordComputed accounts one freshly computed cell and its wall clock.
func (m *metrics) recordComputed(scenario string, ms float64) {
	m.cellsComputed.Add(1)
	m.mu.Lock()
	st := m.scenario[scenario]
	if st == nil {
		st = &scenarioTiming{}
		m.scenario[scenario] = st
	}
	st.Cells++
	st.TotalMS += ms
	m.mu.Unlock()
}

// snapshotScenarios copies the per-scenario sums as a name-sorted slice.
func (m *metrics) snapshotScenarios() []namedScenarioTiming {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.scenario))
	for name := range m.scenario {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]namedScenarioTiming, 0, len(names))
	for _, name := range names {
		out = append(out, namedScenarioTiming{Name: name, scenarioTiming: *m.scenario[name]})
	}
	return out
}
