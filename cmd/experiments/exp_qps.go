package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/subcube"
	"dimred/internal/warehouse"
	"dimred/internal/workload"
)

// The QPS benchmark prices the epoch-snapshot read path under
// contention: g closed-loop reader goroutines issue queries while a
// writer loops load-and-sync rounds. The same workload runs against two
// read paths —
//
//   - "locked": the pre-snapshot design, reconstructed as a baseline:
//     one RWMutex in front of a cube set, RLock per query, Lock across
//     each load+sync round;
//   - "snapshot": the warehouse's lock-free pinned-snapshot path.
//
// Each (path, goroutine-count) configuration is one ReadQPS/g<N> row in
// the artifact; the g8 locked-vs-snapshot pair is the contention figure
// BENCH_gates.json floors, and the snapshot path's g1→g8 QPS growth is
// the scaling figure (its ceiling tracks GOMAXPROCS, recorded in the
// artifact's env section).
const (
	// qpsWindow is the measurement window per configuration; each
	// configuration reports the median QPS of qpsReps windows.
	qpsWindow = 300 * time.Millisecond
	qpsReps   = 3
	// qpsStormRows is how many late-arriving facts each writer round
	// loads before forcing a synchronization. The rows land on days
	// already folded away, so every round has movers — an idle sync
	// would be skipped by the zone-map untouched check and the writer
	// would stop contending. Rounds rotate through the workload's
	// facts so each round folds thousands of distinct cells: the round
	// then prices a real bulk load (insert, scan, fold, compact), which
	// on the locked path all happens under the write lock.
	qpsStormRows = 12000
)

var qpsGoroutines = []int{1, 2, 4, 8}

// qpsWorkload is the bench workload at serving shape: the same 180-day
// click stream as benchWorkload but over a narrow URL dimension, so the
// folded month cube (what queries actually scan) stays small and a
// query prices read-path overhead rather than cube width, while storm
// rounds still carry full insert+fold volume.
func qpsWorkload() (*workload.ClickObject, *spec.Spec, error) {
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 1, Start: caltime.Date(2000, 1, 1), Days: 180,
		ClicksPerDay: 100, Domains: 10, URLsPerDomain: 4,
	})
	if err != nil {
		return nil, nil, err
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		return nil, nil, err
	}
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, env))
	if err != nil {
		return nil, nil, err
	}
	return obj, s, nil
}

// lockedStore is the baseline read path: coarse reader-writer locking
// around one cube set.
type lockedStore struct {
	mu sync.RWMutex
	cs *subcube.CubeSet
}

func (s *lockedStore) query(q subcube.Query, at caltime.Day) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, err := s.cs.Evaluate(q, at)
	return err
}

func (s *lockedStore) stormRound(facts *factCycle, at caltime.Day) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < qpsStormRows; i++ {
		refs, meas := facts.next()
		if err := s.cs.Insert(refs, meas); err != nil {
			return err
		}
	}
	_, err := s.cs.Sync(at)
	return err
}

// factCycle deals the workload's facts out in rotation. Every fact's
// day predates the benchmark's sync horizon, so each dealt row is a
// mover, and consecutive rounds touch distinct (day, url) cells rather
// than re-merging one.
type factCycle struct {
	mo *mdm.MO
	i  int
}

func (f *factCycle) next() ([]mdm.ValueID, []float64) {
	fid := mdm.FactID(f.i)
	f.i = (f.i + 1) % f.mo.Len()
	return f.mo.Refs(fid), f.mo.Measures(fid)
}

// measureQPS runs g closed-loop readers against query while storm loops
// concurrently, for one window. It returns the completed query count
// and the elapsed wall time.
func measureQPS(g int, query func() error, storm func() error) (int64, time.Duration, error) {
	var stop atomic.Bool
	var firstErr atomic.Pointer[error]
	fail := func(err error) {
		e := err
		firstErr.CompareAndSwap(nil, &e)
		stop.Store(true)
	}
	counts := make([]int64, g)
	var readers, writer sync.WaitGroup
	start := time.Now()
	writer.Add(1)
	go func() {
		defer writer.Done()
		for !stop.Load() {
			if err := storm(); err != nil {
				fail(err)
				return
			}
		}
	}()
	readers.Add(g)
	for i := 0; i < g; i++ {
		go func(i int) {
			defer readers.Done()
			var n int64
			for !stop.Load() {
				if err := query(); err != nil {
					fail(err)
					return
				}
				n++
			}
			counts[i] = n
		}(i)
	}
	time.Sleep(qpsWindow)
	stop.Store(true)
	readers.Wait()
	elapsed := time.Since(start)
	writer.Wait()
	if p := firstErr.Load(); p != nil {
		return 0, 0, *p
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	return total, elapsed, nil
}

func qpsRow(op, path string, workloadRows int, queries int64, elapsed time.Duration) benchRow {
	sec := elapsed.Seconds()
	var qps, ns float64
	if queries > 0 && sec > 0 {
		qps = float64(queries) / sec
		ns = float64(elapsed.Nanoseconds()) / float64(queries)
	}
	return benchRow{
		Op:         op,
		Path:       path,
		Iterations: int(queries),
		NsPerOp:    ns,
		Rows:       workloadRows,
		RowsPerSec: qps,
	}
}

// runQPSBench measures closed-loop read QPS for both read paths at each
// goroutine count and writes the rows as JSON to outPath.
func runQPSBench(outPath string) error {
	obj, sp, err := qpsWorkload()
	if err != nil {
		return err
	}
	// Every workload day predates at's two-month aggregation horizon, so
	// the initial sync folds the whole load into the month cube and every
	// storm row is a mover.
	at := caltime.Date(2000, 9, 13)
	q := subcube.MustParseQuery(`aggregate [Time.quarter, URL.domain_grp]`, sp.Env())

	// Locked baseline store.
	ls := &lockedStore{}
	ls.cs, err = subcube.New(sp)
	if err != nil {
		return err
	}
	if err := ls.cs.InsertMO(obj.MO); err != nil {
		return err
	}
	if _, err := ls.cs.Sync(at); err != nil {
		return err
	}

	// Snapshot warehouse.
	w, err := warehouse.Open(sp.Env(), sp.Actions()...)
	if err != nil {
		return err
	}
	err = w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
		for f := 0; f < obj.MO.Len(); f++ {
			fid := mdm.FactID(f)
			if err := load(obj.MO.Refs(fid), obj.MO.Measures(fid)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := w.AdvanceTo(at); err != nil {
		return err
	}

	lockedFacts := &factCycle{mo: obj.MO}
	snapFacts := &factCycle{mo: obj.MO}
	paths := []struct {
		name  string
		query func() error
		storm func() error
	}{
		{
			name:  "locked",
			query: func() error { return ls.query(q, at) },
			storm: func() error { return ls.stormRound(lockedFacts, at) },
		},
		{
			name: "snapshot",
			query: func() error {
				_, err := w.QueryAt(q, at)
				return err
			},
			// LoadBatch is one atomic commit ending in a sync — the same
			// insert+sync round as the locked storm, through the
			// publish-and-drain write path.
			storm: func() error {
				return w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
					for i := 0; i < qpsStormRows; i++ {
						refs, meas := snapFacts.next()
						if err := load(refs, meas); err != nil {
							return err
						}
					}
					return nil
				})
			},
		},
	}

	var rows []benchRow
	for _, p := range paths {
		// Warm the evaluation caches outside the window.
		if err := p.query(); err != nil {
			return err
		}
		if err := p.storm(); err != nil {
			return err
		}
		for _, g := range qpsGoroutines {
			// Median of qpsReps windows: one window is noisy at the
			// hundreds-of-rounds scale, and both the committed artifact
			// and the CI gate divide these numbers.
			type rep struct {
				queries int64
				elapsed time.Duration
			}
			reps := make([]rep, 0, qpsReps)
			for i := 0; i < qpsReps; i++ {
				queries, elapsed, err := measureQPS(g, p.query, p.storm)
				if err != nil {
					return err
				}
				reps = append(reps, rep{queries, elapsed})
			}
			sort.Slice(reps, func(i, j int) bool {
				return float64(reps[i].queries)*reps[j].elapsed.Seconds() <
					float64(reps[j].queries)*reps[i].elapsed.Seconds()
			})
			med := reps[len(reps)/2]
			r := qpsRow(fmt.Sprintf("ReadQPS/g%d", g), p.name, obj.MO.Len(), med.queries, med.elapsed)
			rows = append(rows, r)
			fmt.Printf("%-10s %-9s %4d goroutine(s) %10.0f queries/s (%d in %v)\n",
				r.Op, r.Path, g, r.RowsPerSec, r.Iterations, med.elapsed.Round(time.Millisecond))
		}
	}

	if err := writeBenchReport(outPath, benchReport{Suite: "qps", Rows: rows}); err != nil || outPath == "-" {
		return err
	}
	byOpPath := map[string]float64{}
	for _, r := range rows {
		byOpPath[r.Op+"/"+r.Path] = r.RowsPerSec
	}
	if l, s := byOpPath["ReadQPS/g8/locked"], byOpPath["ReadQPS/g8/snapshot"]; l > 0 {
		fmt.Printf("contention (g8): snapshot serves %.2fx the locked path's QPS\n", s/l)
	}
	if g1, g8 := byOpPath["ReadQPS/g1/snapshot"], byOpPath["ReadQPS/g8/snapshot"]; g1 > 0 {
		fmt.Printf("scaling: snapshot QPS grows %.2fx from 1 to 8 readers (GOMAXPROCS=%d)\n",
			g8/g1, runtime.GOMAXPROCS(0))
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
