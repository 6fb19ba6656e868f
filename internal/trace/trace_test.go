package trace_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/testbed"
	"github.com/tagspin/tagspin/internal/trace"
)

// session builds a small simulated collection for trace tests.
func session(t *testing.T) ([]core.SpinningTag, core.Observations, geom.Vec3) {
	t.Helper()
	rng := rand.New(rand.NewSource(51))
	sc := testbed.DefaultScenario(0, rng)
	target := geom.V3(-1.5, 1.0, 0)
	sc.PlaceReader(target)
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	return registered, col.Obs, target
}

func TestRoundTripThroughBuffer(t *testing.T) {
	registered, obs, target := session(t)
	truth := [3]float64{target.X, target.Y, target.Z}
	tr := trace.New("unit test", registered, obs, &truth)

	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header.Description != "unit test" || back.Header.TruePosition == nil {
		t.Errorf("header = %+v", back.Header)
	}
	if len(back.Records) != len(tr.Records) {
		t.Fatalf("records %d vs %d", len(back.Records), len(tr.Records))
	}
	// Replaying must reproduce the pipeline result exactly.
	obs2, err := back.Observations()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := back.SpinningTags()
	if err != nil {
		t.Fatal(err)
	}
	loc := core.NewLocator(core.Config{})
	r1, err := loc.Locate2D(registered, obs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := loc.Locate2D(st2, obs2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Position.DistanceTo(r2.Position) > 1e-9 {
		t.Errorf("replayed result %v differs from live %v", r2.Position, r1.Position)
	}
}

func TestRecordsAreTimeOrdered(t *testing.T) {
	registered, obs, _ := session(t)
	tr := trace.New("", registered, obs, nil)
	for i := 1; i < len(tr.Records); i++ {
		if tr.Records[i].TimeMicros < tr.Records[i-1].TimeMicros {
			t.Fatalf("record %d out of order", i)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	registered, obs, _ := session(t)
	tr := trace.New("file test", registered, obs, nil)
	path := filepath.Join(t.TempDir(), "session.jsonl")
	if err := trace.Save(path, tr); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(tr.Records) {
		t.Errorf("records %d vs %d", len(back.Records), len(tr.Records))
	}
	if _, err := trace.Load(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := trace.Read(strings.NewReader("")); !errors.Is(err, trace.ErrEmptyTrace) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := trace.Read(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := trace.Read(strings.NewReader(`{"version":9,"registered":[]}` + "\n")); err == nil {
		t.Error("future version accepted")
	}
	good := `{"version":1,"registered":[]}` + "\n" + "garbage\n"
	if _, err := trace.Read(strings.NewReader(good)); err == nil {
		t.Error("garbage record accepted")
	}
}

func TestBadEPCInRecords(t *testing.T) {
	tr := &trace.Trace{
		Header:  trace.Header{Version: 1},
		Records: []trace.Record{{EPC: "zz"}},
	}
	if _, err := tr.Observations(); err == nil {
		t.Error("bad EPC accepted")
	}
}

// TestTimeOutOfRange pins the timestamp bound: a timeUs whose microseconds
// overflow a time.Duration fails with ErrTimeRange instead of wrapping
// into a garbage snapshot time, and the extremes that still fit convert
// exactly.
func TestTimeOutOfRange(t *testing.T) {
	const epc = "b03b2442c5defe5836c62e80"
	const limit = math.MaxInt64 / int64(time.Microsecond)
	for _, us := range []int64{limit + 1, -limit - 1, math.MaxInt64, math.MinInt64} {
		tr := &trace.Trace{Header: trace.Header{Version: 1}, Records: []trace.Record{{EPC: epc, TimeMicros: us}}}
		if _, err := tr.Observations(); !errors.Is(err, trace.ErrTimeRange) {
			t.Errorf("timeUs %d: err = %v, want ErrTimeRange", us, err)
		}
	}
	for _, us := range []int64{limit, -limit} {
		tr := &trace.Trace{Header: trace.Header{Version: 1}, Records: []trace.Record{{EPC: epc, TimeMicros: us}}}
		obs, err := tr.Observations()
		if err != nil {
			t.Fatalf("timeUs %d: %v", us, err)
		}
		for _, snaps := range obs {
			if got := snaps[0].Time; got%time.Microsecond != 0 || got/time.Microsecond != time.Duration(us) {
				t.Errorf("timeUs %d: snapshot time %d", us, got)
			}
		}
	}
}
