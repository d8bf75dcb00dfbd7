package main

import (
	"bytes"
	"fmt"
	"time"

	"dimred"
)

// adhocQuery is one catalog entry: query text, the selection and
// aggregation approaches it runs under, and the day it is evaluated
// at, as an offset from NOW (0 is NOW; other days are as-of queries
// that take the unsynchronized path).
type adhocQuery struct {
	src   string
	sel   dimred.SelectionApproach
	agg   dimred.AggregationApproach
	asOf  int
	label string
}

var (
	adhocPreds = []string{
		`URL.domain_grp = ".com"`,
		`2000/2 < Time.month and Time.month <= 2000/6`,
		`Time.week <= 2000W30 and URL.domain_grp = ".edu"`,
		`Time.day <= 2000/8/10 and URL.domain_grp = ".org"`,
		`Time.month <= NOW - 1 month`,
		`URL.domain_grp = ".com" and Time.quarter in {2000Q2}`,
	}
	adhocTargets = []string{
		`[Time.month, URL.domain]`,
		`[Time.quarter, URL.domain_grp]`,
		`[Time.week, URL.domain_grp]`,
		`[Time.month, URL.domain_grp]`,
	}
	adhocSels = []dimred.SelectionApproach{dimred.Conservative, dimred.Liberal, dimred.Weighted}
	adhocAggs = []dimred.AggregationApproach{dimred.Availability, dimred.Strict, dimred.LUB, dimred.Disaggregated}
)

// adhocCatalog covers every selection approach × aggregation approach
// twice, with varied predicates and targets; every third entry is an
// as-of query, on six distinct days after NOW (more days than the
// router cache has slots).
func adhocCatalog() []adhocQuery {
	var out []adhocQuery
	for i := 0; i < 2*len(adhocSels)*len(adhocAggs); i++ {
		combo := i % (len(adhocSels) * len(adhocAggs))
		q := adhocQuery{
			src: fmt.Sprintf("aggregate %s where %s", adhocTargets[(i/3)%len(adhocTargets)], adhocPreds[i%len(adhocPreds)]),
			sel: adhocSels[combo/len(adhocAggs)],
			agg: adhocAggs[combo%len(adhocAggs)],
		}
		if i%3 == 2 {
			q.asOf = 1 + (i/3)%6
		}
		q.label = fmt.Sprintf("adhoc #%d (%s, sel %d, agg %d, NOW+%d)", i, q.src, q.sel, q.agg, q.asOf)
		out = append(out, q)
	}
	return out
}

// adhocState is what the adhoc setup builds: the warehouse the clients
// read, restored from a saved image, and a second restored copy that
// takes the writes (so the reads' reference answers stay fixed).
type adhocState struct {
	data  *clickData
	orig  *dimred.Warehouse // the warehouse that was saved
	image []byte
	w, wc *dimred.Warehouse
}

// runAdhoc: two closed-loop clients send query text (ParseQuery, then
// QueryAt) drawn uniformly from a catalog of predicated queries under
// every selection × aggregation approach, a third of them as-of queries.
// Views never serve predicated queries, so the work is in parsing,
// the compiled specification, the cube scan and the fold. The warehouse
// is restored from a Save image in setup. Answers must equal the
// interpreted path's on another restored copy.
func runAdhoc(r *run) error {
	o := r.opt
	histDays, perDay := 240, o.sized(330, 4)
	refreshDays := o.sized(300, readRounds)
	cat := adhocCatalog()

	st, err := setupReps(r, func(p int64) (*adhocState, error) {
		return adhocSetup(r, p, histDays, refreshDays, perDay)
	})
	if err != nil {
		return err
	}
	w, now := st.w, st.data.now

	want := make([]expected, len(cat))
	err = r.phase("prepare", func(p int64) error {
		got, err := materialize(w)
		if err != nil {
			return err
		}
		saved, err := materialize(st.orig)
		if err != nil {
			return err
		}
		r.check(got.DumpCells() == saved.DumpCells(), "restored warehouse cells differ from the saved warehouse")
		st.orig = nil

		oracle, _, err := dimred.LoadWarehouse(bytes.NewReader(st.image))
		if err != nil {
			return fmt.Errorf("restore oracle copy: %w", err)
		}
		oracle.SetInterpreted(true)
		for k, c := range cat {
			q, err := dimred.ParseQuery(c.src, oracle.Env())
			if err != nil {
				return fmt.Errorf("%s: %w", c.label, err)
			}
			q.Sel, q.Agg = c.sel, c.agg
			mo, err := oracle.QueryAt(q, now+dimred.Day(c.asOf))
			if err != nil {
				return fmt.Errorf("%s on the interpreted path: %w", c.label, err)
			}
			want[k] = expect(mo)
		}
		return nil
	})
	if err != nil {
		return err
	}

	seqs := [][]int{uniformMix(o.seed*7919+1, len(cat), 1<<14), uniformMix(o.seed*7919+2, len(cat), 1<<14)}
	checkers := []*checker{newChecker(r, want), newChecker(r, want)}
	return measureReads(r, st, func(l *lane, c, i int, req int64) {
		k := seqs[c][i%len(seqs[c])]
		e := cat[k]
		ro := l.begin("request", 0, req)
		defer l.end(ro)
		t0 := time.Now()
		var q dimred.CubeQuery
		d, err := r.call(l, "ParseQuery", ro.id, req, func() (err error) {
			q, err = dimred.ParseQuery(e.src, w.Env())
			return err
		})
		l.add("parse_us", us(d))
		if err != nil {
			return
		}
		q.Sel, q.Agg = e.sel, e.agg
		mo, _, err := query(r, l, ro.id, req, w, q, now+dimred.Day(e.asOf), o.trace)
		l.add("query_ms", ms(time.Since(t0)))
		if err == nil {
			checkers[c].verify(l, ro.id, req, k, r.answer(mo), e.label)
		}
	})
}

func adhocSetup(r *run, p int64, histDays, refreshDays, perDay int) (*adhocState, error) {
	l := r.main
	g := l.begin("generate", p, 0)
	data, err := genClicks(r.opt.seed, histDays, refreshDays, perDay)
	l.end(g)
	if err != nil {
		return nil, err
	}
	orig, err := openClick(data.obj)
	if err != nil {
		return nil, err
	}
	if err := bulkLoad(r, p, orig, data); err != nil {
		return nil, err
	}
	image, err := saveImage(r, p, orig)
	if err != nil {
		return nil, err
	}
	w, err := restore(r, p, image)
	if err != nil {
		return nil, err
	}
	wc, err := restore(r, p, image)
	if err != nil {
		return nil, err
	}
	return &adhocState{data: data, orig: orig, image: image, w: w, wc: wc}, nil
}

// readRounds is how many read windows adhoc's measured phase is cut
// into; a write round follows each, so reads and writes sample the
// same stretch of time.
//
// adhoc writes at all because every run reports every end-to-end
// metric, ingest_facts_per_s and visible_* included, and none may be 0.
// The writes go to a second restored copy, so the reads' reference
// answers stay fixed. They are the stream's daily load without the
// late arrivals, at the history's own rate of clicks a day; a round of
// 30 days crosses one month boundary, where AdvanceTo synchronizes.
const readRounds = 10

// measureReads runs adhoc's measured phase: readRounds rounds, each two
// closed-loop clients calling body for a tenth of the measured time on
// st.w, then a tenth of the refresh days written to st.wc (Ingest per
// fact, FlushIngest, AdvanceTo, day by day). It
// records the rounds, the final state and the per-layer metrics, then
// checks the writes: every ingested fact folded, and the copy still
// covering every click.
func measureReads(r *run, st *adhocState, body func(l *lane, client, i int, req int64)) error {
	days := st.data.days
	block := (len(days) + readRounds - 1) / readRounds
	per := r.opt.seconds / readRounds
	next := make([]int, 2)
	facts := 0

	gc(r)
	rBefore, wBefore := st.w.Metrics(), st.wc.Metrics()
	for i := 0; i < readRounds; i++ {
		_ = r.phase("measure", func(int64) error {
			a0 := allocated()
			t0 := time.Now()
			lanes, n := closedLoop(r, t0.Add(per), next, body)
			wall := time.Since(t0)
			r.reads = append(r.reads, round{n: float64(n), seconds: wall.Seconds(), alloc: allocated() - a0,
				samples: pool(lanes)})
			return nil
		})
		lo, hi := min(i*block, len(days)), min((i+1)*block, len(days))
		if lo == hi {
			continue
		}
		_ = r.phase("refresh", func(p int64) error {
			n, wr := ingestDays(r, p, st.wc, days[lo:hi], 0, nil)
			facts += n
			r.writes = append(r.writes, wr)
			return nil
		})
	}
	rd := rawDelta(rBefore, st.w.Metrics())
	wd := rawDelta(wBefore, st.wc.Metrics())
	r.addRaw("read", rd)
	r.addRaw("write", wd)

	_ = r.phase("finish", func(int64) error {
		r.set("heap_mb", heapMB(), 0, nil)
		finalState(r, st.wc)
		all := map[string]int64{}
		for _, d := range []map[string]int64{rd, wd} {
			for k, v := range d {
				all[k] += v
			}
		}
		all["ViewBytes"] = rd["ViewBytes"]
		r.deriveLayers(all, len(days))
		return nil
	})
	return r.phase("verify", func(p int64) error {
		checkIngestDrained(r, wd, facts)
		q, err := dimred.ParseQuery(`aggregate [Time.year, URL.domain_grp]`, st.wc.Env())
		if err != nil {
			return err
		}
		mo, _, err := query(r, r.main, p, 0, st.wc, q, st.wc.Now(), false)
		if err != nil {
			return nil // counted as a failure
		}
		loaded := len(st.data.history) + facts
		r.check(numberOf(mo) == float64(loaded), "after the refresh the warehouse covers %v clicks, loaded %d",
			numberOf(mo), loaded)
		return nil
	})
}
