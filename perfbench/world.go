package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"dimred"
	"dimred/internal/workload"
)

// The click warehouse every workload drives: the paper's ISP scenario
// with detail kept for two months, then folded to (month, domain), and
// to (quarter, domain group) after four quarters.
var clickActions = []struct{ name, src string }{
	{"m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`},
	{"q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`},
}

// clickStart is the first event day of every generated stream.
var clickStart = dimred.Date(2000, 1, 1)

// dashboardShapes are the predicate-free availability shapes a
// dashboard asks, most popular first (the Zipf draw favours low
// indices). Time.week runs parallel to Time.month, so no rollup view
// over month-folded data can serve the week shape: it always takes the
// base path.
var dashboardShapes = []string{
	`aggregate [Time.month, URL.domain]`,
	`aggregate [Time.quarter, URL.domain]`,
	`aggregate [Time.month, URL.domain_grp]`,
	`aggregate [Time.week, URL.domain]`,
	`aggregate [Time.quarter, URL.domain_grp]`,
	`aggregate [Time.year, URL.domain_grp]`,
}

// fact is one bottom-granularity click row.
type fact struct {
	refs []dimred.ValueID
	meas []float64
}

// clickEnv binds the click schema of obj to its time dimension.
func clickEnv(obj *workload.ClickObject) (*dimred.Env, error) {
	return dimred.NewEnv(obj.Schema, "Time", obj.Time)
}

func clickActionsFor(env *dimred.Env) ([]*dimred.Action, error) {
	var out []*dimred.Action
	for _, a := range clickActions {
		act, err := dimred.CompileAction(a.name, a.src, env)
		if err != nil {
			return nil, fmt.Errorf("compile action %s: %w", a.name, err)
		}
		out = append(out, act)
	}
	return out, nil
}

// openClick opens an empty click warehouse over obj's schema at the
// stream's first day.
func openClick(obj *workload.ClickObject) (*dimred.Warehouse, error) {
	env, err := clickEnv(obj)
	if err != nil {
		return nil, err
	}
	acts, err := clickActionsFor(env)
	if err != nil {
		return nil, err
	}
	return dimred.Open(env, acts...)
}

// clickData is an in-order click stream split at NOW: the history to
// bulk-load, and the days after it, one slice per day.
type clickData struct {
	obj     *workload.ClickObject
	now     dimred.Day
	history []fact
	days    [][]fact
}

// genClicks generates histDays of history and extraDays after it,
// perDay clicks a day, from the seed. Every dimension value the stream
// uses exists in obj's dimensions before the warehouse is opened, so a
// saved image holds them all.
func genClicks(seed int64, histDays, extraDays, perDay int) (*clickData, error) {
	obj, err := workload.NewClickSchema()
	if err != nil {
		return nil, err
	}
	d := &clickData{obj: obj, now: clickStart + dimred.Day(histDays), days: make([][]fact, extraDays)}
	cfg := workload.ClickConfig{Seed: seed, Start: clickStart, Days: histDays + extraDays,
		ClicksPerDay: perDay, Domains: 30, URLsPerDomain: 8}
	err = workload.GenerateClicks(cfg, func(c workload.Click) error {
		refs, meas, err := obj.Row(c)
		if err != nil {
			return err
		}
		f := fact{refs, meas}
		if c.Day < d.now {
			d.history = append(d.history, f)
		} else {
			i := int(c.Day - d.now)
			d.days[i] = append(d.days[i], f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func loadRows(rows []fact) func(load func([]dimred.ValueID, []float64) error) error {
	return func(load func([]dimred.ValueID, []float64) error) error {
		for _, f := range rows {
			if err := load(f.refs, f.meas); err != nil {
				return err
			}
		}
		return nil
	}
}

// fingerprint is an order-independent digest of an answer's cells:
// per fact, an FNV-64a hash of its value ids, base count and measures
// (rounded to 1e-6, so a correct answer folded in another order still
// matches), summed over facts. Comparing fingerprints checks every
// answer at a cost linear in its cells; DumpCells, which sorts
// rendered cells, checks the first answer of each query in full.
func fingerprint(mo *dimred.MO) uint64 {
	var sum uint64
	var buf []byte
	for f := 0; f < mo.Len(); f++ {
		fid := dimred.FactID(f)
		buf = buf[:0]
		for _, v := range mo.Refs(fid) {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(mo.BaseCount(fid)))
		for _, m := range mo.Measures(fid) {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(math.Round(m*1e6))))
		}
		h := fnv.New64a()
		_, _ = h.Write(buf) // hash writes cannot fail
		sum += h.Sum64()
	}
	return sum + uint64(mo.Len())
}

// numberOf totals the Number_of measure (measure 0: one per click) over
// an answer's cells: for a predicate-free availability query, the
// number of clicks the answer covers.
func numberOf(mo *dimred.MO) float64 {
	return mo.TotalMeasure(0)
}

// materialize unions every subcube of w's published cube set into one
// MO, for cell-exact comparison with DumpCells.
func materialize(w *dimred.Warehouse) (*dimred.MO, error) {
	schema := w.Env().Schema
	out := dimred.NewMO(schema)
	for _, c := range w.Cubes().Cubes() {
		mo, err := c.MO(schema)
		if err != nil {
			return nil, err
		}
		for f := 0; f < mo.Len(); f++ {
			fid := dimred.FactID(f)
			if _, err := out.AddFactAt(mo.Refs(fid), mo.Measures(fid), mo.BaseCount(fid), ""); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// zipfMix draws n indices in [0, k) from a Zipf distribution (skew
// 1.5), index 0 the most popular.
func zipfMix(seed int64, k, n int) ([]int, error) {
	return workload.SkewedShapes(workload.QueryMixConfig{Seed: seed, Shapes: k}, n)
}

// zipfWarm is a fixed warm-up replay of k shapes: every shape once,
// then each shape as often as its share of an n-draw Zipf mix (skew
// 1.5) would give it. The view selector sees the same shape counts
// whatever the seed, so every run materializes the same views.
func zipfWarm(k, n int) []int {
	var weights []float64
	var total float64
	for i := 0; i < k; i++ {
		weights = append(weights, math.Pow(float64(1+i), -1.5))
		total += weights[i]
	}
	var out []int
	for i := 0; i < k; i++ {
		for j := 0; j <= int(math.Round(float64(n)*weights[i]/total)); j++ {
			out = append(out, i)
		}
	}
	return out
}

// uniformMix draws n indices uniformly in [0, k).
func uniformMix(seed int64, k, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(k)
	}
	return out
}
