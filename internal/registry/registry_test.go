package registry

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spindisk"
	"github.com/tagspin/tagspin/internal/tags"
)

func validEntry(epcByte byte) Entry {
	var epc tags.EPC
	epc[0] = epcByte
	return Entry{
		EPC:            epc.String(),
		Center:         [3]float64{-0.25, 0, 0},
		RadiusM:        0.10,
		OmegaRadPerSec: math.Pi,
	}
}

func TestAddGetListRemove(t *testing.T) {
	r := New()
	if err := r.Add(validEntry(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(validEntry(2)); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	e, err := r.Get(validEntry(1).EPC)
	if err != nil {
		t.Fatal(err)
	}
	if e.RadiusM != 0.10 {
		t.Errorf("entry = %+v", e)
	}
	list := r.List()
	if len(list) != 2 || list[0].EPC > list[1].EPC {
		t.Errorf("list not sorted: %v", list)
	}
	if err := r.Remove(validEntry(1).EPC); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(validEntry(1).EPC); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if err := r.Remove("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("remove missing err = %v", err)
	}
}

func TestAddValidation(t *testing.T) {
	r := New()
	bad := validEntry(1)
	bad.EPC = "zz"
	if err := r.Add(bad); err == nil {
		t.Error("bad EPC accepted")
	}
	bad = validEntry(1)
	bad.RadiusM = 0
	if err := r.Add(bad); err == nil {
		t.Error("zero radius accepted")
	}
	bad = validEntry(1)
	bad.OmegaRadPerSec = 0
	if err := r.Add(bad); err == nil {
		t.Error("zero omega accepted")
	}
	if err := r.Add(validEntry(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(validEntry(1)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate err = %v", err)
	}
}

func TestUpdate(t *testing.T) {
	r := New()
	if err := r.Update(validEntry(1)); !errors.Is(err, ErrNotFound) {
		t.Errorf("update missing err = %v", err)
	}
	if err := r.Add(validEntry(1)); err != nil {
		t.Fatal(err)
	}
	e := validEntry(1)
	e.RadiusM = 0.12
	if err := r.Update(e); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(e.EPC)
	if err != nil {
		t.Fatal(err)
	}
	if got.RadiusM != 0.12 {
		t.Errorf("update lost: %+v", got)
	}
}

func TestRoundTripSpinningTag(t *testing.T) {
	cal, err := phase.FitOrientation(orientationSamples(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var epc tags.EPC
	epc[11] = 7
	orig := core.SpinningTag{
		EPC: epc,
		Disk: spindisk.Disk{
			Center: geom.V3(0.25, 0, 0.095),
			Radius: 0.10,
			Omega:  math.Pi,
			Theta0: 1.2,
		},
		Orientation: &cal,
	}
	entry := EntryFromSpinningTag(orig)
	back, err := entry.SpinningTag()
	if err != nil {
		t.Fatal(err)
	}
	if back.EPC != orig.EPC || back.Disk != orig.Disk {
		t.Errorf("round trip mismatch: %+v vs %+v", back, orig)
	}
	for _, rho := range []float64{0, 1, 2, 3} {
		if math.Abs(back.Orientation.Offset(rho)-orig.Orientation.Offset(rho)) > 1e-12 {
			t.Errorf("calibration lost at ρ=%v", rho)
		}
	}
}

func orientationSamples() []phase.OrientationSample {
	var out []phase.OrientationSample
	for i := 0; i < 64; i++ {
		rho := 2 * math.Pi * float64(i) / 64
		out = append(out, phase.OrientationSample{Rho: rho, Phase: 1 + 0.3*math.Sin(2*rho)})
	}
	return out
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	r := New()
	cal, err := phase.FitOrientation(orientationSamples(), 2)
	if err != nil {
		t.Fatal(err)
	}
	e := validEntry(1)
	e.Orientation = &cal
	if err := r.Add(e); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(validEntry(2)); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d entries", loaded.Len())
	}
	got, err := loaded.Get(e.EPC)
	if err != nil {
		t.Fatal(err)
	}
	if got.Orientation == nil {
		t.Fatal("orientation calibration not persisted")
	}
	for _, rho := range []float64{0.5, 1.5, 2.5} {
		if math.Abs(got.Orientation.Offset(rho)-cal.Offset(rho)) > 1e-9 {
			t.Errorf("persisted calibration differs at ρ=%v", rho)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, "not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("bad JSON accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestSpinningTags(t *testing.T) {
	r := New()
	if err := r.Add(validEntry(3)); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(validEntry(1)); err != nil {
		t.Fatal(err)
	}
	st, err := r.SpinningTags()
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 2 {
		t.Fatalf("len = %d", len(st))
	}
	if st[0].EPC.String() > st[1].EPC.String() {
		t.Error("not sorted")
	}
}

// TestConcurrentAccess hammers the registry from many goroutines; run with
// -race to verify the locking.
func TestConcurrentAccess(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var epc tags.EPC
				epc[0], epc[1] = byte(w), byte(i)
				e := validEntry(0)
				e.EPC = epc.String()
				if err := r.Add(e); err != nil {
					t.Errorf("add: %v", err)
					return
				}
				if _, err := r.Get(e.EPC); err != nil {
					t.Errorf("get: %v", err)
					return
				}
				r.List()
				e.RadiusM = 0.12
				if err := r.Update(e); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				if i%2 == 0 {
					if err := r.Remove(e.EPC); err != nil {
						t.Errorf("remove: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 8*25 {
		t.Errorf("len = %d, want %d", r.Len(), 8*25)
	}
}

// TestSaveConcurrent hammers Save on one path from several goroutines; with
// the old fixed path+".tmp" scheme two concurrent Saves raced on the same
// temp file and could corrupt each other's rename. Run with -race.
func TestSaveConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	r := New()
	if err := r.Add(validEntry(1)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := r.Save(path); err != nil {
					t.Errorf("save: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("load after concurrent saves: %v", err)
	}
	if loaded.Len() != 1 {
		t.Errorf("loaded %d entries", loaded.Len())
	}
	assertNoTempFiles(t, dir)
}

// TestSaveFailedRenameCleansTemp points Save at a path whose rename must
// fail (the destination is an existing directory) and verifies the
// temporary file is removed instead of leaked.
func TestSaveFailedRenameCleansTemp(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "registry.json")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	// Make the rename target unremovable-over: a non-empty directory.
	if err := os.WriteFile(filepath.Join(blocked, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.Add(validEntry(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(blocked); err == nil {
		t.Fatal("save over a directory succeeded")
	}
	assertNoTempFiles(t, dir)
}

// TestSaveMissingDir fails before creating anything when the target
// directory does not exist.
func TestSaveMissingDir(t *testing.T) {
	r := New()
	if err := r.Save(filepath.Join(t.TempDir(), "no", "such", "dir", "r.json")); err == nil {
		t.Error("save into missing directory succeeded")
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leaked temp file %s", e.Name())
		}
	}
}

// FuzzRegistryLoad feeds arbitrary files to Load. It must never panic, and
// it must succeed exactly when the file is one JSON array of entries that
// each pass Entry.Validate and name distinct tags, however their EPC hex is
// cased. A loaded registry finds every entry by its lowercase EPC, yields
// one SpinningTag per entry, and survives a Save/Load round trip
// unchanged. The seed corpus is in testdata/fuzz/FuzzRegistryLoad. Run it
// beyond the seeds with
//
//	go test -run '^$' -fuzz FuzzRegistryLoad -fuzztime 60s ./internal/registry/
func FuzzRegistryLoad(f *testing.F) {
	// One directory per fuzz process: its inputs run one at a time.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "registry.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Load(path)

		var entries []Entry
		ok := json.Unmarshal(data, &entries) == nil
		seen := map[string]bool{}
		for _, e := range entries {
			ok = ok && e.Validate() == nil && !seen[strings.ToLower(e.EPC)]
			seen[strings.ToLower(e.EPC)] = true
		}
		if (err == nil) != ok {
			t.Fatalf("Load error %v, want success %v", err, ok)
		}
		if err != nil {
			return
		}
		list := r.List()
		if len(list) != len(entries) {
			t.Fatalf("%d entries loaded, want %d", len(list), len(entries))
		}
		for _, e := range list {
			if got, err := r.Get(strings.ToLower(e.EPC)); err != nil || got.EPC != e.EPC {
				t.Errorf("Get(%q) = %+v, %v; want the entry registered as %q", strings.ToLower(e.EPC), got, err, e.EPC)
			}
		}
		tagList, err := r.SpinningTags()
		if err != nil || len(tagList) != len(entries) {
			t.Fatalf("SpinningTags: %d tags, %v", len(tagList), err)
		}
		again := filepath.Join(dir, "again.json")
		if err := r.Save(again); err != nil {
			t.Fatal(err)
		}
		r2, err := Load(again)
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
		if !reflect.DeepEqual(r2.List(), list) {
			t.Errorf("round trip changed the registry:\n%+v\n%+v", r2.List(), list)
		}
	})
}

// TestValidateNonFinite pins the finite-geometry rule: a NaN or ±Inf in any
// disk field fails Entry.Validate, so Add rejects it.
func TestValidateNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 6; field++ {
			e := validEntry(1)
			switch field {
			case 0, 1, 2:
				e.Center[field] = bad
			case 3:
				e.RadiusM = bad
			case 4:
				e.OmegaRadPerSec = bad
			case 5:
				e.Theta0Rad = bad
			}
			if err := New().Add(e); err == nil {
				t.Errorf("field %d = %v accepted", field, bad)
			}
		}
	}
}

// TestEPCCaseIsOneTag pins the canonical EPC key: an EPC in upper-case hex
// is the same tag as its lowercase form for Add, Get, Update and Remove,
// and the entry keeps the EPC it was registered with.
func TestEPCCaseIsOneTag(t *testing.T) {
	r := New()
	e := validEntry(0xab)
	upper := e
	upper.EPC = strings.ToUpper(e.EPC)
	if err := r.Add(upper); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(e); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("lowercase duplicate: err = %v, want ErrDuplicate", err)
	}
	got, err := r.Get(e.EPC)
	if err != nil || got.EPC != upper.EPC {
		t.Fatalf("Get(%q) = %+v, %v; want EPC %q", e.EPC, got, err, upper.EPC)
	}
	if err := r.Update(e); err != nil {
		t.Fatalf("Update by lower case: %v", err)
	}
	if err := r.Remove(upper.EPC); err != nil || r.Len() != 0 {
		t.Fatalf("Remove(%q): %v, %d left", upper.EPC, err, r.Len())
	}
}
