package engine

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
)

// TestSimRowsLaneIndependent runs every simRows row cold at 4,096
// validators, the size from which the simulator steps an epoch whose
// partitions cannot hear each other lane by lane, once with two processors
// and once with one: the payloads are byte for byte the same, the rows whose
// honest partitions stay apart (sim/leak, sim/partition, and sim/gst before
// its heal) take lanes, and the rest take none — sim/drops heals at once,
// and the adversary rows (sim/semiactive, sim/bounce) bridge the partitions.
func TestSimRowsLaneIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	laned := map[string]bool{ScenarioSimLeak: true, ScenarioSimPartition: true, ScenarioSimGST: true}
	ctx := context.Background()
	for i := range simRows {
		row := &simRows[i]
		t.Run(row.name, func(t *testing.T) {
			p := row.defaults
			p.N, p.Horizon = 4096, 8
			if row.reads&FieldGST != 0 {
				p.GST = 4
			}
			if err := row.validate(p); err != nil {
				t.Fatal(err)
			}
			run := func(procs int) ([]byte, int) {
				t.Helper()
				runtime.GOMAXPROCS(procs)
				sc := &simScenario{row: row}
				s, tr, _, err := sc.advance(ctx, p, nil, p.Horizon, false)
				var res Result
				if err == nil {
					res, err = row.finish(ctx, p, s, tr)
				}
				if err != nil {
					t.Fatal(err)
				}
				payload, err := json.Marshal(res.WithoutMeta())
				if err != nil {
					t.Fatal(err)
				}
				return payload, s.Stats().LaneEpochs
			}
			two, lanes := run(2)
			one, none := run(1)
			if string(two) != string(one) {
				t.Fatalf("payloads differ:\n  two processors: %s\n  one:            %s", two, one)
			}
			if none != 0 || (lanes > 0) != laned[row.name] {
				t.Fatalf("%d epochs with lanes on two processors, %d on one; want lanes: %v", lanes, none, laned[row.name])
			}
		})
	}
}
