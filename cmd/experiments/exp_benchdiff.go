package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchGate is one declared floor of BENCH_gates.json: in an artifact
// of Suite, op Op's Base path must take at least Min times as long per
// op as its Improved path. Ratios of two measurements on the same host
// cancel out machine speed, so one committed floor gates runs on any
// hardware. Min 0 keeps the pair required but only reports its ratio:
// the ReadQPS rows below g8, whose ratio is bounded by the host's
// GOMAXPROCS. Why records where the floor came from; a floor may be
// raised, never lowered.
type benchGate struct {
	Suite    string  `json:"suite"`
	Op       string  `json:"op"`
	Base     string  `json:"base"`
	Improved string  `json:"improved"`
	Min      float64 `json:"min"`
	Why      string  `json:"why"`
}

// gateResult is one gate's measured base/improved ratio.
type gateResult struct {
	benchGate
	ratio float64
}

func (r gateResult) status() string {
	switch {
	case r.Min == 0:
		return "informational"
	case r.ratio < r.Min:
		return "REGRESSED"
	}
	return "ok"
}

// loadGates reads a gates file and rejects an incomplete gate, a floor
// that is negative or NaN, and a second gate for one (suite, op).
func loadGates(path string) ([]benchGate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var gates []benchGate
	if err := json.Unmarshal(data, &gates); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[[2]string]bool{}
	for _, g := range gates {
		key := [2]string{g.Suite, g.Op}
		if g.Suite == "" || g.Op == "" || g.Base == "" || g.Improved == "" || !(g.Min >= 0) || seen[key] {
			return nil, fmt.Errorf("%s: malformed or duplicate gate %+v", path, g)
		}
		seen[key] = true
	}
	return gates, nil
}

// loadBenchReport reads an artifact written by -bench or -qps.
func loadBenchReport(path string) (benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchReport{}, err
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		return benchReport{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(report.Rows) == 0 {
		return benchReport{}, fmt.Errorf("%s: no benchmark rows", path)
	}
	return report, nil
}

// speedups applies every gate of the report's suite to its rows. A gate
// whose op the report does not measure, a pair with one side missing,
// and a zero, negative or NaN measurement are each an error naming the
// op: a bench that silently stopped producing a figure (or divided into
// +Inf) would otherwise grandfather in any regression behind it. Rows no
// gate names are ignored. When every ratio was computed, the results
// come back even if some fall below their floor, so the caller can print
// them beside the error.
func speedups(gates []benchGate, report benchReport) ([]gateResult, error) {
	ns := map[[2]string]float64{}
	for _, r := range report.Rows {
		ns[[2]string{r.Op, r.Path}] = r.NsPerOp
	}
	var results []gateResult
	var missing, regressed []string
	for _, g := range gates {
		if g.Suite != report.Suite {
			continue
		}
		bv, hasBase := ns[[2]string{g.Op, g.Base}]
		iv, hasImproved := ns[[2]string{g.Op, g.Improved}]
		if !hasBase && !hasImproved {
			missing = append(missing, g.Op)
			continue
		}
		if !hasBase || !hasImproved {
			present, absent := g.Base, g.Improved
			if !hasBase {
				present, absent = g.Improved, g.Base
			}
			return nil, fmt.Errorf("op %s: path %q measured but pair path %q missing", g.Op, present, absent)
		}
		// !(x > 0) rather than x <= 0: NaN fails every comparison.
		if !(bv > 0) || !(iv > 0) {
			return nil, fmt.Errorf("op %s: non-positive or NaN ns/op (%s=%v, %s=%v); refusing to compute a speedup",
				g.Op, g.Base, bv, g.Improved, iv)
		}
		r := gateResult{benchGate: g, ratio: bv / iv}
		if r.ratio < g.Min {
			regressed = append(regressed, fmt.Sprintf("%s (%.2fx < %.2fx)", g.Op, r.ratio, g.Min))
		}
		results = append(results, r)
	}
	if len(results)+len(missing) == 0 {
		return nil, fmt.Errorf("no gates for suite %q", report.Suite)
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("gated ops missing from the %s artifact: %s (refusing to check a partial artifact)",
			report.Suite, strings.Join(missing, ", "))
	}
	if len(regressed) > 0 {
		return results, fmt.Errorf("speedup below its floor on: %s", strings.Join(regressed, ", "))
	}
	return results, nil
}

// checkViewStats validates the view-counter citation accompanying a
// candidate's QueryViews rows: the speedup must come from view serving.
// No hits, a miss rate above a tenth of the traffic, or a view set over
// its own byte budget each mean the ratio measured something else, and
// the artifact is rejected rather than compared.
func checkViewStats(vs *viewStats) error {
	if vs == nil {
		return fmt.Errorf("QueryViews measured but no view-counter citation in the artifact")
	}
	if vs.Hits <= 0 {
		return fmt.Errorf("views-on run recorded no view hits (misses=%d)", vs.Misses)
	}
	if vs.Misses*10 > vs.Hits {
		return fmt.Errorf("views-on run missed %d of %d view lookups; the measured path is not view serving",
			vs.Misses, vs.Hits+vs.Misses)
	}
	if vs.Bytes <= 0 || vs.Bytes > vs.BudgetBytes {
		return fmt.Errorf("view set holds %d bytes against a %d-byte budget", vs.Bytes, vs.BudgetBytes)
	}
	return nil
}

// hasOp reports whether any row measures the op.
func hasOp(rows []benchRow, op string) bool {
	for _, r := range rows {
		if r.Op == op {
			return true
		}
	}
	return false
}

// runBenchDiff checks a fresh artifact against the committed gates:
// spec is GATES.json,NEW.json. Absolute ns/op is never compared — it
// tracks the host, not the code.
func runBenchDiff(spec string) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-benchdiff wants GATES.json,NEW.json, got %q", spec)
	}
	gates, err := loadGates(parts[0])
	if err != nil {
		return err
	}
	report, err := loadBenchReport(parts[1])
	if err != nil {
		return err
	}
	fmt.Printf("%s suite, GOMAXPROCS=%d NumCPU=%d %s\n",
		report.Suite, report.Env.GOMAXPROCS, report.Env.NumCPU, report.Env.GoVersion)
	results, gateErr := speedups(gates, report)
	for _, r := range results {
		fmt.Printf("%-12s speedup %7.2fx (floor %7.2fx) %s\n", r.Op, r.ratio, r.Min, r.status())
	}

	views, ingest := report.Citations.Views, report.Citations.Ingest
	if hasOp(report.Rows, "QueryViews") {
		if err := checkViewStats(views); err != nil {
			return fmt.Errorf("%s: %w", parts[1], err)
		}
		fmt.Printf("QueryViews citation: %d view hits, %d misses, %d builds, %d/%d bytes of budget\n",
			views.Hits, views.Misses, views.Builds, views.Bytes, views.BudgetBytes)
	}
	if hasOp(report.Rows, "Ingest") {
		if err := checkIngestStats(ingest); err != nil {
			return fmt.Errorf("%s: %w", parts[1], err)
		}
		fmt.Printf("Ingest citation: %d queued = %d compacted (%d late) in %d compactions; reader p99 locked %dns vs delta %dns\n",
			ingest.Queued, ingest.Compacted, ingest.Late, ingest.Compactions, ingest.LockedP99Ns, ingest.DeltaP99Ns)
	}

	writeBenchDiffSummary(report, results)
	if gateErr != nil {
		return fmt.Errorf("%s: %w", parts[1], gateErr)
	}
	return nil
}

// writeBenchDiffSummary appends a markdown table of the checked gates —
// plus the counter citations backing any QueryViews or Ingest rows —
// to $GITHUB_STEP_SUMMARY when CI provides one.
func writeBenchDiffSummary(report benchReport, results []gateResult) {
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" || len(results) == 0 {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "### benchdiff: %s suite (GOMAXPROCS=%d, NumCPU=%d, %s)\n\n",
		report.Suite, report.Env.GOMAXPROCS, report.Env.NumCPU, report.Env.GoVersion)
	fmt.Fprintf(f, "| op | speedup | floor | status |\n")
	fmt.Fprintf(f, "|---|---|---|---|\n")
	for _, r := range results {
		fmt.Fprintf(f, "| %s | %.2fx | %.2fx | %s |\n", r.Op, r.ratio, r.Min, r.status())
	}
	fmt.Fprintln(f)
	if v := report.Citations.Views; v != nil {
		fmt.Fprintf(f, "QueryViews citation: ViewHits=%d ViewMisses=%d ViewBuilds=%d ViewBytes=%d/%d budget\n\n",
			v.Hits, v.Misses, v.Builds, v.Bytes, v.BudgetBytes)
	}
	if in := report.Citations.Ingest; in != nil {
		fmt.Fprintf(f, "Ingest citation: IngestQueued=%d IngestCompacted=%d IngestLate=%d compactions=%d reader-p99 locked=%dns delta=%dns\n\n",
			in.Queued, in.Compacted, in.Late, in.Compactions, in.LockedP99Ns, in.DeltaP99Ns)
	}
}
