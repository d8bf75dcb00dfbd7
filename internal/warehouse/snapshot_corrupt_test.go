package warehouse

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/workload"
)

// corruptionWarehouse builds the fixture the snapshot images hold: a
// small warehouse — 40 days of 5 clicks each, aged to 2000/6/1 so it
// holds rows at several grains.
func corruptionWarehouse(t *testing.T) *Warehouse {
	t.Helper()
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	loadStream(t, w, obj, workload.ClickConfig{Seed: 5, Start: start, Days: 40, ClicksPerDay: 5})
	if err := w.AdvanceTo(caltime.Date(2000, 6, 1)); err != nil {
		t.Fatal(err)
	}
	return w
}

// snapshotImages are corruptionWarehouse saved once by each snapshot
// format version's writer: v1.snapshot predates the view state, and
// v2.snapshot is the current format. Save is not byte-deterministic
// (gob writes maps in random order), so the corruption tests damage
// these committed images, never a fresh save: a failing trial then
// replays exactly.
var snapshotImages = []string{"v1.snapshot", "v2.snapshot"}

func readImage(t testing.TB, name string) []byte {
	t.Helper()
	img, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// snapshotBattery is the query battery the image tests compare.
var snapshotBattery = []string{
	`aggregate [Time.TOP, URL.TOP]`,
	`aggregate [Time.month, URL.domain]`,
	`aggregate [Time.quarter, URL.domain_grp]`,
	`aggregate [Time.day, URL.url] where Time.month >= 2000/2`,
}

// TestSnapshotImagesMatchFreshBuild loads every committed image and
// requires its clock, fact counts and query answers to equal the
// fixture rebuilt from scratch, pinning that each format version still
// loads to the same warehouse.
func TestSnapshotImagesMatchFreshBuild(t *testing.T) {
	fresh := corruptionWarehouse(t)
	for _, name := range snapshotImages {
		t.Run(name, func(t *testing.T) {
			w, _, err := Load(bytes.NewReader(readImage(t, name)))
			if err != nil {
				t.Fatal(err)
			}
			if w.Now() != fresh.Now() {
				t.Errorf("clock %v, fresh build %v", w.Now(), fresh.Now())
			}
			if got, want := w.Stats(), fresh.Stats(); got.Rows != want.Rows || got.LoadedFacts != want.LoadedFacts {
				t.Errorf("stats differ from the fresh build:\n%v\nvs\n%v", got, want)
			}
			for _, q := range snapshotBattery {
				got, err := w.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if want.Len() == 0 {
					t.Fatalf("query %q answers nothing on the fixture", q)
				}
				if g, o := got.DumpCells(), want.DumpCells(); g != o {
					t.Errorf("query %q differs from the fresh build:\n%s\nvs\n%s", q, g, o)
				}
			}
		})
	}
}

// loadRecovering runs Load on img and turns a panic into a returned
// value, so a crashing image fails the test with its trial instead of
// killing the test binary.
func loadRecovering(img []byte) (panicked any, err error) {
	defer func() { panicked = recover() }()
	_, _, err = Load(bytes.NewReader(img))
	return nil, err
}

// TestSnapshotLoadRejectsCraftedImages pins one crafted image per
// loader site that used to panic on a corrupted snapshot: each must
// now come back as an error.
func TestSnapshotLoadRejectsCraftedImages(t *testing.T) {
	base := readImage(t, "v2.snapshot")
	cases := []struct {
		name   string
		damage func(sf *snapshotFile)
	}{
		{"row ref outside its dimension", func(sf *snapshotFile) { sf.Rows[0].Refs[0] = 1 << 20 }},
		{"negative row ref", func(sf *snapshotFile) { sf.Rows[0].Refs[1] = -3 }},
		{"time dimension names no dimension", func(sf *snapshotFile) { sf.TimeDimName = "Tmie" }},
		{"negative ancestor category", func(sf *snapshotFile) { sf.Dimensions[0].Categories[0].Anc = []int32{-1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sf snapshotFile
			if err := gob.NewDecoder(bytes.NewReader(base)).Decode(&sf); err != nil {
				t.Fatal(err)
			}
			tc.damage(&sf)
			var img bytes.Buffer
			if err := gob.NewEncoder(&img).Encode(sf); err != nil {
				t.Fatal(err)
			}
			p, err := loadRecovering(img.Bytes())
			if p != nil {
				t.Fatalf("Load panicked: %v", p)
			}
			if err == nil {
				t.Fatal("Load accepted the damaged image")
			}
		})
	}
}

// TestSnapshotLoadByteFlipsNeverPanic damages v2.snapshot with 1–4
// random byte flips per trial, from a fixed seed, and requires every
// trial to return an error or a warehouse — never a panic. Some damaged
// images still load: detecting those needs a checksummed format.
func TestSnapshotLoadByteFlipsNeverPanic(t *testing.T) {
	base := readImage(t, "v2.snapshot")
	rng := rand.New(rand.NewSource(1))
	const trials = 3000
	var rejected int
	for trial := 0; trial < trials; trial++ {
		img := append([]byte(nil), base...)
		var flips []string
		for n := 1 + rng.Intn(4); n > 0; n-- {
			at, mask := rng.Intn(len(img)), byte(1+rng.Intn(255))
			img[at] ^= mask
			flips = append(flips, fmt.Sprintf("byte %d ^= %#x", at, mask))
		}
		p, err := loadRecovering(img)
		if p != nil {
			t.Fatalf("trial %d (%v): Load panicked: %v", trial, flips, p)
		}
		if err != nil {
			rejected++
		}
	}
	t.Logf("%d of %d damaged images rejected, the rest loaded", rejected, trials)
}

// cellDump renders the materialized rows of every cube, cube by cube.
func cellDump(t *testing.T, w *Warehouse) string {
	t.Helper()
	var b strings.Builder
	for i, c := range w.Cubes().Cubes() {
		mo, err := c.MO(w.Env().Schema)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "cube %d:\n%s", i, mo.DumpCells())
	}
	return b.String()
}

// FuzzSnapshotLoad feeds arbitrary images to Load, seeded with the
// committed ones. Each must either be rejected with an error or load
// into a warehouse that queries, reports, saves, ages and syncs without
// panicking, and whose Save→Load round trip reproduces its materialized
// cells. Query errors are allowed: a damaged image may rename the
// categories the battery names.
func FuzzSnapshotLoad(f *testing.F) {
	for _, name := range snapshotImages {
		f.Add(readImage(f, name))
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		w, _, err := Load(bytes.NewReader(img))
		if err != nil {
			return
		}
		for _, q := range snapshotBattery {
			_, _ = w.Query(q)
			_, _, _ = w.QueryTraced(q)
		}
		_ = w.Stats()
		_ = w.Metrics()
		var buf bytes.Buffer
		if err := w.Save(&buf); err != nil {
			t.Fatalf("Save of a loaded image: %v", err)
		}
		again, _, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load of a re-saved image: %v", err)
		}
		if got, want := cellDump(t, again), cellDump(t, w); got != want {
			t.Fatalf("Save→Load changed the materialized cells:\n%s\nvs\n%s", got, want)
		}
		_ = w.AdvanceTo(w.Now() + 400)
		_ = w.Sync()
	})
}
