package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dimred/internal/views"
)

// committedGates is the repository's gates file, read the way CI reads it.
const committedGates = "../../BENCH_gates.json"

// healthyReport builds a synthetic artifact of suite that passes every
// committed gate with margin: each gated pair measures 1.5x its floor
// (1.5x flat for an informational gate).
func healthyReport(gates []benchGate, suite string) benchReport {
	report := benchReport{Suite: suite}
	for _, g := range gates {
		if g.Suite != suite {
			continue
		}
		ratio := 1.5 * math.Max(g.Min, 1)
		report.Rows = append(report.Rows,
			benchRow{Op: g.Op, Path: g.Base, NsPerOp: 1000 * ratio},
			benchRow{Op: g.Op, Path: g.Improved, NsPerOp: 1000})
	}
	return report
}

// setNs sets the ns/op of one (op, path) row, appending it if absent.
func setNs(rows []benchRow, op, path string, ns float64) []benchRow {
	for i := range rows {
		if rows[i].Op == op && rows[i].Path == path {
			rows[i].NsPerOp = ns
			return rows
		}
	}
	return append(rows, benchRow{Op: op, Path: path, NsPerOp: ns})
}

// dropRows removes every row of op on any of paths.
func dropRows(rows []benchRow, op string, paths ...string) []benchRow {
	var out []benchRow
	for _, r := range rows {
		if r.Op == op && slices.Contains(paths, r.Path) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// TestSpeedups is the gate's one rule over synthetic rows against the
// committed gates: every gate of the artifact's suite must be present
// with both pair paths measured, and its base/improved ratio must reach
// its floor. The strictness cases are ratios the weakest of the former
// per-feature reference artifacts would have passed; the merged gates
// must reject them.
func TestSpeedups(t *testing.T) {
	gates, err := loadGates(committedGates)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		suite   string
		edit    func([]benchRow) []benchRow
		wantErr []string // substrings of the error; nil means the artifact passes
	}{
		{name: "healthy pair", suite: "bench"},
		{name: "healthy qps artifact", suite: "qps"},
		{name: "QueryViews pairs views-off with views-on", suite: "bench",
			edit: func(rows []benchRow) []benchRow {
				rows = setNs(rows, "QueryViews", "views-off", 1000)
				return setNs(rows, "QueryViews", "views-on", 12000)
			},
			wantErr: []string{"QueryViews"}},
		{name: "Ingest pairs locked with delta", suite: "bench",
			edit: func(rows []benchRow) []benchRow {
				rows = setNs(rows, "Ingest", "locked", 1000)
				return setNs(rows, "Ingest", "delta", 3000)
			},
			wantErr: []string{"Ingest"}},
		{name: "Ingest floor is absolute", suite: "bench",
			edit: func(rows []benchRow) []benchRow { return setNs(rows, "Ingest", "locked", 2100) }},
		{name: "neither pair path is skipped", suite: "bench",
			edit: func(rows []benchRow) []benchRow {
				rows = setNs(rows, "Sync", "somethingelse", 1)
				return setNs(rows, "Ungated", "anything", 1)
			}},
		{name: "below min fails naming the op", suite: "bench",
			edit:    func(rows []benchRow) []benchRow { return setNs(rows, "Reduce", "interpreted", 1500) },
			wantErr: []string{"Reduce", "floor"}},
		{name: "half a pair fails naming the op", suite: "bench",
			edit:    func(rows []benchRow) []benchRow { return dropRows(rows, "Sync", "interpreted") },
			wantErr: []string{"Sync", "interpreted"}},
		{name: "zero baseline fails instead of +Inf", suite: "bench",
			edit:    func(rows []benchRow) []benchRow { return setNs(rows, "Sync", "compiled", 0) },
			wantErr: []string{"Sync"}},
		{name: "NaN fails", suite: "bench",
			edit:    func(rows []benchRow) []benchRow { return setNs(rows, "Sync", "interpreted", math.NaN()) },
			wantErr: []string{"Sync"}},
		{name: "missing op fails", suite: "bench",
			edit:    func(rows []benchRow) []benchRow { return dropRows(rows, "Query", "interpreted", "compiled") },
			wantErr: []string{"Query", "missing"}},
		{name: "unknown suite fails", suite: "nosuch",
			edit:    func([]benchRow) []benchRow { return []benchRow{{Op: "Sync", Path: "compiled", NsPerOp: 1}} },
			wantErr: []string{"nosuch"}},
		{name: "informational gate reports any ratio", suite: "qps",
			edit: func(rows []benchRow) []benchRow { return setNs(rows, "ReadQPS/g1", "snapshot", 5000) }},
		{name: "informational gate still requires both rows", suite: "qps",
			edit:    func(rows []benchRow) []benchRow { return dropRows(rows, "ReadQPS/g2", "snapshot") },
			wantErr: []string{"ReadQPS/g2", "snapshot"}},
		{name: "informational gate still requires its op", suite: "qps",
			edit:    func(rows []benchRow) []benchRow { return dropRows(rows, "ReadQPS/g4", "locked", "snapshot") },
			wantErr: []string{"ReadQPS/g4", "missing"}},
		{name: "strict Sync 2.0x fails", suite: "bench",
			edit:    func(rows []benchRow) []benchRow { return setNs(rows, "Sync", "interpreted", 2000) },
			wantErr: []string{"Sync"}},
		{name: "strict QueryViews 11.0x fails", suite: "bench",
			edit:    func(rows []benchRow) []benchRow { return setNs(rows, "QueryViews", "views-off", 11000) },
			wantErr: []string{"QueryViews"}},
		{name: "strict ReadQPS/g8 1.8x fails", suite: "qps",
			edit:    func(rows []benchRow) []benchRow { return setNs(rows, "ReadQPS/g8", "locked", 1800) },
			wantErr: []string{"ReadQPS/g8"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			report := healthyReport(gates, tc.suite)
			if tc.edit != nil {
				report.Rows = tc.edit(report.Rows)
			}
			results, err := speedups(gates, report)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("healthy artifact rejected: %v", err)
				}
				if len(results) == 0 {
					t.Fatal("no gate checked")
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted; want an error naming %q", tc.wantErr)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

// TestGatesNeverLoosen pins every committed floor at or above the
// strictest one the former per-feature reference artifacts implied (0.75
// x their measured ratio, or the absolute floor where higher), so a
// floor can be raised in BENCH_gates.json but never lowered, and no
// gate can be dropped.
func TestGatesNeverLoosen(t *testing.T) {
	gates, err := loadGates(committedGates)
	if err != nil {
		t.Fatal(err)
	}
	floors := map[[2]string]float64{
		{"bench", "Sync"}:       2.2568,
		{"bench", "Reduce"}:     1.7466,
		{"bench", "Query"}:      1.1866,
		{"bench", "QueryViews"}: 11.8395,
		{"bench", "Ingest"}:     2.0,
		{"qps", "ReadQPS/g1"}:   0,
		{"qps", "ReadQPS/g2"}:   0,
		{"qps", "ReadQPS/g4"}:   0,
		{"qps", "ReadQPS/g8"}:   2.0,
	}
	for _, g := range gates {
		key := [2]string{g.Suite, g.Op}
		floor, ok := floors[key]
		if !ok {
			continue
		}
		delete(floors, key)
		if g.Min < floor {
			t.Errorf("%s/%s: min %v is below the pinned floor %v", g.Suite, g.Op, g.Min, floor)
		}
		if g.Why == "" {
			t.Errorf("%s/%s: no reason recorded for the floor", g.Suite, g.Op)
		}
	}
	for key := range floors {
		t.Errorf("%s/%s: gate removed", key[0], key[1])
	}
}

// TestLoadGatesRejectsMalformed pins the gates-file checks: a gate with
// an empty field, a negative or NaN floor, or a second gate for one
// (suite, op) is refused.
func TestLoadGatesRejectsMalformed(t *testing.T) {
	for name, body := range map[string]string{
		"empty improved": `[{"suite":"bench","op":"Sync","base":"interpreted","min":2}]`,
		"negative min":   `[{"suite":"bench","op":"Sync","base":"interpreted","improved":"compiled","min":-1}]`,
		"duplicate": `[{"suite":"bench","op":"Sync","base":"interpreted","improved":"compiled","min":2},
			{"suite":"bench","op":"Sync","base":"interpreted","improved":"compiled","min":1}]`,
		"not an array": `{"suite":"bench"}`,
	} {
		path := filepath.Join(t.TempDir(), "gates.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadGates(path); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCheckViewStats pins the QueryViews citation gate: the QueryViews
// floor only means anything if the measured fast path really was view serving
// within budget.
func TestCheckViewStats(t *testing.T) {
	good := viewStats{Hits: 1000, Misses: 2, Builds: 4, Bytes: 5000, BudgetBytes: views.DefaultMaxBytes}
	if err := checkViewStats(&good); err != nil {
		t.Errorf("healthy citation rejected: %v", err)
	}
	cases := map[string]viewStats{
		"no hits":        {Hits: 0, Misses: 5, Bytes: 100, BudgetBytes: 1000},
		"miss-dominated": {Hits: 100, Misses: 50, Bytes: 100, BudgetBytes: 1000},
		"over budget":    {Hits: 1000, Bytes: 2000, BudgetBytes: 1000},
		"no bytes":       {Hits: 1000, Bytes: 0, BudgetBytes: 1000},
	}
	for name, vs := range cases {
		vs := vs
		if err := checkViewStats(&vs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkViewStats(nil); err == nil {
		t.Error("missing citation accepted")
	}
}

// TestCheckIngestStats pins the Ingest citation gate: the Ingest floor
// only means anything if the delta run really folded its whole
// queue — late facts included — while readers were being served.
func TestCheckIngestStats(t *testing.T) {
	good := ingestStats{Queued: 2250, Compacted: 2250, Late: 1400, Compactions: 30,
		Readers: 2, LockedReads: 500, DeltaReads: 800, LockedP99Ns: 9000, DeltaP99Ns: 7000}
	if err := checkIngestStats(&good); err != nil {
		t.Errorf("healthy citation rejected: %v", err)
	}
	cases := map[string]ingestStats{
		"dropped work":   {Queued: 100, Compacted: 90, Late: 10, Compactions: 5, LockedReads: 1, DeltaReads: 1},
		"nothing queued": {Queued: 0, Compacted: 0, Late: 0, Compactions: 0, LockedReads: 1, DeltaReads: 1},
		"no late facts":  {Queued: 100, Compacted: 100, Late: 0, Compactions: 5, LockedReads: 1, DeltaReads: 1},
		"no compactions": {Queued: 100, Compacted: 100, Late: 10, Compactions: 0, LockedReads: 1, DeltaReads: 1},
		"idle readers":   {Queued: 100, Compacted: 100, Late: 10, Compactions: 5, LockedReads: 0, DeltaReads: 1},
	}
	for name, st := range cases {
		st := st
		if err := checkIngestStats(&st); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkIngestStats(nil); err == nil {
		t.Error("missing citation accepted")
	}
}
