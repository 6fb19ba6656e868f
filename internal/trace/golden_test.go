package trace_test

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/tagspin/tagspin/internal/channel"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/estimate"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spindisk"
	"github.com/tagspin/tagspin/internal/tags"
	"github.com/tagspin/tagspin/internal/testbed"
	"github.com/tagspin/tagspin/internal/trace"
)

// update regenerates the golden set: go test ./internal/trace -run TestGolden -update
var update = flag.Bool("update", false, "re-record the golden traces from the simulator and rewrite their expected answers")

const goldenDir = "testdata/golden"

// goldenMLTol bounds how far the ML backend's position may move from its
// recorded value, in meters. The ML solve is a Nelder–Mead search over a
// likelihood summed in floating point; its answer is deterministic today,
// but the bound leaves room for a reordered reduction without hiding a
// changed bearing (the grid backend, pinned bit for bit, catches those).
const goldenMLTol = 1e-6

// goldenSession describes one recorded simulator session. Every session is
// at real length (Rotations 2.15 → ≥288 reads per tag), far past the batch
// coarse pass's term subset, exactly as in production.
type goldenSession struct {
	name       string
	threeD     bool
	calibrated bool // registered tags carry orientation calibrations: Q bootstrap then R passes
	seed       int64
	reader     geom.Vec3
	diskZ      float64
	setup      func(sc *testbed.Scenario)
}

var goldenSessions = []goldenSession{
	{name: "2d-calibrated", calibrated: true, seed: 101, reader: geom.V3(-1.8, 1.4, 0)},
	{name: "2d-uncalibrated", seed: 102, reader: geom.V3(1.2, 2.1, 0)},
	{name: "3d-calibrated", threeD: true, calibrated: true, seed: 103, reader: geom.V3(-1.1, 1.6, 0.8)},
	{name: "3d-uncalibrated", threeD: true, seed: 104, reader: geom.V3(1.5, 1.3, 0.5)},
	{name: "2d-jittered-omega", calibrated: true, seed: 105, reader: geom.V3(-0.9, 2.3, 0),
		setup: func(sc *testbed.Scenario) { sc.Actuator = spindisk.ActuatorConfig{JitterStd: 0.02} }},
	{name: "2d-multipath-outliers", calibrated: true, seed: 106, reader: geom.V3(2.0, 1.7, 0),
		setup: func(sc *testbed.Scenario) {
			sc.Channel.OutlierProb = 0.05
			sc.Channel.Reflectors = []channel.Reflector{
				{Point: geom.V3(0, 3.5, 0), Normal: geom.V3(0, 1, 0), Coefficient: 0.3},
				{Point: geom.V3(-3, 0, 0), Normal: geom.V3(1, 0, 0), Coefficient: 0.2},
			}
		}},
}

// goldenBearing is one fused per-tag peak.
type goldenBearing struct {
	EPC       string  `json:"epc"`
	Azimuth   float64 `json:"azimuth"`
	Polar     float64 `json:"polar"`
	Power     float64 `json:"power"`
	Snapshots int     `json:"snapshots"`
}

// goldenAnswer is one session's recorded output. encoding/json writes each
// float64 in the shortest form that parses back to the same bits, so the
// grid fields compare exactly.
type goldenAnswer struct {
	Grid       []float64       `json:"gridPositionM"`
	Bearings   []goldenBearing `json:"bearings"`
	GridMirror []float64       `json:"gridMirrorM,omitempty"`
	ML         []float64       `json:"mlPositionM"`
}

func (s goldenSession) path() string { return filepath.Join(goldenDir, s.name+".jsonl") }

// record simulates the session and writes its trace.
func (s goldenSession) record(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(s.seed))
	sc := testbed.DefaultScenario(s.diskZ, rng)
	sc.Rotations = 2.15
	if s.setup != nil {
		s.setup(sc)
	}
	sc.PlaceReader(s.reader)
	var registered []core.SpinningTag
	if s.calibrated {
		var err error
		if registered, err = sc.CalibratedSpinningTags(rng); err != nil {
			t.Fatal(err)
		}
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	if !s.calibrated {
		registered = col.Registered
	}
	for epc, snaps := range col.Obs {
		if len(snaps) < 288 {
			t.Fatalf("%s: tag %s has %d reads, want ≥288", s.name, epc, len(snaps))
		}
	}
	truth := [3]float64{s.reader.X, s.reader.Y, s.reader.Z}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := trace.Save(s.path(), trace.New("golden "+s.name, registered, col.Obs, &truth)); err != nil {
		t.Fatal(err)
	}
}

// load reads the session's trace back into pipeline inputs.
func (s goldenSession) load(t *testing.T) ([]core.SpinningTag, core.Observations) {
	t.Helper()
	tr, err := trace.Load(s.path())
	if err != nil {
		t.Fatal(err)
	}
	obs, err := tr.Observations()
	if err != nil {
		t.Fatal(err)
	}
	registered, err := tr.SpinningTags()
	if err != nil {
		t.Fatal(err)
	}
	return registered, obs
}

func bearingsOf(ests []core.TagEstimate) []goldenBearing {
	out := make([]goldenBearing, len(ests))
	for i, e := range ests {
		out[i] = goldenBearing{EPC: e.EPC.String(), Azimuth: e.Azimuth, Polar: e.Polar, Power: e.Power, Snapshots: e.Snapshots}
	}
	return out
}

// answer runs the grid and ML backends over the session.
func (s goldenSession) answer(t *testing.T, registered []core.SpinningTag, obs core.Observations) goldenAnswer {
	t.Helper()
	grid := core.NewLocator(core.Config{})
	ml := grid.WithEstimator(estimate.NewML(estimate.Config{}))
	if s.threeD {
		g, err := grid.Locate3D(registered, obs)
		if err != nil {
			t.Fatalf("%s grid: %v", s.name, err)
		}
		m, err := ml.Locate3D(registered, obs)
		if err != nil {
			t.Fatalf("%s ml: %v", s.name, err)
		}
		return goldenAnswer{
			Grid:       []float64{g.Position.X, g.Position.Y, g.Position.Z},
			GridMirror: []float64{g.Mirror.X, g.Mirror.Y, g.Mirror.Z},
			Bearings:   bearingsOf(g.Bearings),
			ML:         []float64{m.Position.X, m.Position.Y, m.Position.Z},
		}
	}
	g, err := grid.Locate2D(registered, obs)
	if err != nil {
		t.Fatalf("%s grid: %v", s.name, err)
	}
	m, err := ml.Locate2D(registered, obs)
	if err != nil {
		t.Fatalf("%s ml: %v", s.name, err)
	}
	return goldenAnswer{
		Grid:     []float64{g.Position.X, g.Position.Y},
		Bearings: bearingsOf(g.Bearings),
		ML:       []float64{m.Position.X, m.Position.Y},
	}
}

// streamMatchesBatch replays obs into a fresh Stream in global time order,
// the way a reader's reports arrive, checks that the streamed finalize
// equals the batch locate, and returns the stream's counters.
func streamMatchesBatch(t *testing.T, threeD bool, registered []core.SpinningTag, obs core.Observations) core.StreamStats {
	t.Helper()
	type item struct {
		epc  tags.EPC
		snap phase.Snapshot
	}
	var items []item
	for epc, snaps := range obs {
		for _, sn := range snaps {
			items = append(items, item{epc, sn})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].snap.Time < items[j].snap.Time })

	loc := core.NewLocator(core.Config{})
	var st *core.Stream
	if threeD {
		st = loc.NewStream3D(registered)
	} else {
		st = loc.NewStream2D(registered)
	}
	defer st.Close()
	for _, it := range items {
		st.Report(it.epc, it.snap)
	}
	var got, want any
	var err error
	if threeD {
		if got, err = st.Finalize3D(context.Background(), obs); err == nil {
			want, err = loc.Locate3D(registered, obs)
		}
	} else {
		if got, err = st.Finalize2D(context.Background(), obs); err == nil {
			want, err = loc.Locate2D(registered, obs)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed result differs from batch:\n got %+v\nwant %+v", got, want)
	}
	return st.Stats()
}

// TestGoldenTraces pins the answers of committed simulator sessions: the
// grid backend's position and every fused bearing bit for bit, the ML
// backend's position within goldenMLTol, and the streaming locate of every
// full-length trace equal to the batch one with every tag streamed. A
// coarse-search refactor that moves any answer fails here.
func TestGoldenTraces(t *testing.T) {
	expPath := filepath.Join(goldenDir, "expected.json")
	if *update {
		want := map[string]goldenAnswer{}
		for _, s := range goldenSessions {
			s.record(t)
			registered, obs := s.load(t)
			want[s.name] = s.answer(t, registered, obs)
		}
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(expPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(expPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenAnswer
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(goldenSessions) {
		t.Fatalf("expected.json has %d sessions, want %d", len(want), len(goldenSessions))
	}
	for _, s := range goldenSessions {
		s := s
		t.Run(s.name, func(t *testing.T) {
			exp, ok := want[s.name]
			if !ok {
				t.Fatalf("no expected answer for %s", s.name)
			}
			registered, obs := s.load(t)
			for epc, snaps := range obs {
				if len(snaps) < 288 {
					t.Errorf("tag %s has %d reads, want ≥288", epc, len(snaps))
				}
			}
			got := s.answer(t, registered, obs)
			if !reflect.DeepEqual(got.Grid, exp.Grid) || !reflect.DeepEqual(got.GridMirror, exp.GridMirror) {
				t.Errorf("grid position %v (mirror %v), want %v (mirror %v)", got.Grid, got.GridMirror, exp.Grid, exp.GridMirror)
			}
			if !reflect.DeepEqual(got.Bearings, exp.Bearings) {
				t.Errorf("bearings moved:\n got %+v\nwant %+v", got.Bearings, exp.Bearings)
			}
			if len(got.ML) != len(exp.ML) {
				t.Fatalf("ML position has %d coordinates, want %d", len(got.ML), len(exp.ML))
			}
			for i := range got.ML {
				if d := math.Abs(got.ML[i] - exp.ML[i]); d > goldenMLTol {
					t.Errorf("ML coordinate %d = %v, want %v ± %v", i, got.ML[i], exp.ML[i], goldenMLTol)
				}
			}

			n := int64(len(obs))
			if st := streamMatchesBatch(t, s.threeD, registered, obs); st.StreamedTags != n || st.FallbackTags != 0 {
				t.Errorf("full session: %+v, want all %d tags streamed", st, n)
			}
		})
	}
}
