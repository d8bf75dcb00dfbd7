package warehouse

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/workload"
)

// corruptionImage saves a small warehouse — 40 days of 5 clicks each,
// aged to 2000/6/1 so the image holds rows at several grains — as the
// base image the corruption tests damage.
func corruptionImage(t *testing.T) []byte {
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
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	base := corruptionImage(t)
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

// TestSnapshotLoadByteFlipsNeverPanic damages the base image with 1–4
// random byte flips per trial, from a fixed seed, and requires every
// trial to return an error or a warehouse — never a panic. Some damaged
// images still load: detecting those needs a checksummed format.
func TestSnapshotLoadByteFlipsNeverPanic(t *testing.T) {
	base := corruptionImage(t)
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
