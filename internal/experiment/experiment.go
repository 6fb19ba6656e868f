// Package experiment regenerates every table and figure of the paper's
// evaluation (§VII) plus the ablations DESIGN.md calls out. Each experiment
// is a Runner producing a Result: human-readable lines (the same rows or
// series the paper reports) and machine-readable key metrics used by
// EXPERIMENTS.md and the test suite.
package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/tagspin/tagspin/internal/antenna"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/tags"
	"github.com/tagspin/tagspin/internal/testbed"
)

// Options tunes a run.
type Options struct {
	// Seed drives all randomness; the default 0 is a valid fixed seed.
	Seed int64
	// Trials overrides the experiment's default trial count (for quick
	// benchmark runs). Zero keeps the default.
	Trials int
}

// trials returns the effective trial count given an experiment default.
func (o Options) trials(def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	return def
}

// Result is one experiment's output.
type Result struct {
	// ID is the experiment identifier (e.g. "F10a").
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Lines is the rendered report.
	Lines []string
	// Values holds key metrics by name.
	Values map[string]float64
	// Errors holds the per-trial localization errors (meters) of each
	// localization arm by name, in trial order; nil for experiments that
	// localize nothing. The accuracy gate compares them trial by trial.
	Errors map[string][]float64
}

// Text renders the result for a terminal.
func (r Result) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner regenerates one paper artifact.
type Runner struct {
	// ID is the experiment identifier.
	ID string
	// Title describes the artifact.
	Title string
	// Run executes the experiment.
	Run func(Options) (Result, error)
}

// All returns every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{ID: "F1", Title: "Toy overview: three spinning tags pinpoint the reader (Fig. 1)", Run: RunF1},
		{ID: "F3", Title: "Raw phase of a spinning tag (Fig. 3)", Run: RunF3},
		{ID: "F4", Title: "Phase calibration stages (Fig. 4)", Run: RunF4},
		{ID: "F5", Title: "Orientation-only phase fluctuation (Fig. 5)", Run: RunF5},
		{ID: "F6", Title: "Q(φ) vs R(φ) power profiles (Fig. 6)", Run: RunF6},
		{ID: "F8", Title: "3D power profiles and mirror peaks (Fig. 8)", Run: RunF8},
		{ID: "F10a", Title: "2D localization error CDF (Fig. 10a)", Run: RunF10a},
		{ID: "F10b", Title: "3D localization error CDF (Fig. 10b)", Run: RunF10b},
		{ID: "F11a", Title: "Phase vs orientation across tags (Fig. 11a)", Run: RunF11a},
		{ID: "F11b", Title: "Orientation calibration impact (Fig. 11b)", Run: RunF11b},
		{ID: "F12a", Title: "Impact of disk-centers distance (Fig. 12a)", Run: RunF12a},
		{ID: "F12b", Title: "Impact of disk radius (Fig. 12b)", Run: RunF12b},
		{ID: "F12c", Title: "Impact of tag model diversity (Fig. 12c)", Run: RunF12c},
		{ID: "F12d", Title: "Impact of reader-antenna diversity (Fig. 12d)", Run: RunF12d},
		{ID: "T1", Title: "Tag model catalogue (Table I)", Run: RunT1},
		{ID: "T2", Title: "Baseline comparison (§VII-B)", Run: RunT2},
		{ID: "A1", Title: "Ablation: R-profile weight σ", Run: RunA1},
		{ID: "A2", Title: "Ablation: coarse-to-fine vs exhaustive search", Run: RunA2},
		{ID: "A3", Title: "Ablation: read rate vs accuracy", Run: RunA3},
		{ID: "A4", Title: "Ablation: multipath strength", Run: RunA4},
		{ID: "A5", Title: "Ablation: number of disks", Run: RunA5},
		{ID: "A6", Title: "Ablation: literal vs robust R reference", Run: RunA6},
		{ID: "A7", Title: "Ablation: impulsive interference, Q vs R", Run: RunA7},
		{ID: "A8", Title: "Ablation: angle spectrum vs holographic search", Run: RunA8},
		{ID: "A9", Title: "Ablation: Gen2 MAC timing vs uniform sampling", Run: RunA9},
		{ID: "X1", Title: "Extension: vertical disk resolves the z-mirror ambiguity", Run: RunX1},
		{ID: "X2", Title: "Extension: joint ML estimator vs bearing grid, with confidence", Run: RunX2},
	}
}

// ByID finds a runner.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiment: unknown id %q", id)
}

// --- shared trial machinery ---

// placement draws a reader position: azimuth in the front half-plane
// ([20°, 160°], mirroring the paper's desk-facing setup and avoiding the
// degenerate collinear geometry), distance 1.5–3.5 m, height z.
func placement(rng *rand.Rand, z float64) geom.Vec3 {
	az := geom.Radians(20 + 140*rng.Float64())
	d := 1.5 + 2.0*rng.Float64()
	return geom.V3(d*math.Cos(az), d*math.Sin(az), z)
}

// trialSetup configures a batch of localization trials.
type trialSetup struct {
	// diskZ sets the disk plane height.
	diskZ float64
	// mode3D switches placements and the pipeline to 3D.
	mode3D bool
	// modify tweaks the scenario after construction (before calibration).
	modify func(*testbed.Scenario)
	// locator configures the pipeline.
	locator core.Config
	// skipCalibration disables the orientation prelude.
	skipCalibration bool
	// placeReader overrides the default placement sampler.
	placeReader func(rng *rand.Rand) geom.Vec3
}

// axisErrors collects per-axis and combined error samples.
type axisErrors struct {
	x, y, z, combined []float64
}

// runTrials executes n independent localization trials and returns error
// samples. Each trial shares one calibrated deployment (like the paper: the
// infrastructure is installed once, the reader moves).
func runTrials(setup trialSetup, n int, seed int64) (axisErrors, error) {
	rng := rand.New(rand.NewSource(seed))
	sc := testbed.DefaultScenario(setup.diskZ, rng)
	if setup.modify != nil {
		setup.modify(sc)
	}
	// Calibrate against a bench placement before the reader moves.
	sc.PlaceReader(geom.V3(0, 2.5, setup.diskZ))
	var registered []core.SpinningTag
	var err error
	if setup.skipCalibration {
		for _, in := range sc.Installs {
			registered = append(registered, core.SpinningTag{EPC: in.Tag.EPC, Disk: in.Disk})
		}
	} else {
		registered, err = sc.CalibratedSpinningTags(rng)
		if err != nil {
			return axisErrors{}, err
		}
	}
	loc := core.NewLocator(setup.locator)
	place := setup.placeReader
	if place == nil {
		z := setup.diskZ
		if setup.mode3D {
			place = func(rng *rand.Rand) geom.Vec3 {
				return placement(rng, 0.3+1.5*rng.Float64())
			}
		} else {
			place = func(rng *rand.Rand) geom.Vec3 { return placement(rng, z) }
		}
	}
	var errs axisErrors
	for i := 0; i < n; i++ {
		target := place(rng)
		sc.PlaceReader(target)
		col, err := sc.Collect(rng)
		if err != nil {
			return axisErrors{}, fmt.Errorf("trial %d: %w", i, err)
		}
		if setup.mode3D {
			res, err := loc.Locate3D(registered, col.Obs)
			if err != nil {
				return axisErrors{}, fmt.Errorf("trial %d: %w", i, err)
			}
			errs.x = append(errs.x, math.Abs(res.Position.X-target.X))
			errs.y = append(errs.y, math.Abs(res.Position.Y-target.Y))
			errs.z = append(errs.z, math.Abs(res.Position.Z-target.Z))
			errs.combined = append(errs.combined, res.Position.DistanceTo(target))
		} else {
			res, err := loc.Locate2D(registered, col.Obs)
			if err != nil {
				return axisErrors{}, fmt.Errorf("trial %d: %w", i, err)
			}
			errs.x = append(errs.x, math.Abs(res.Position.X-target.X))
			errs.y = append(errs.y, math.Abs(res.Position.Y-target.Y))
			errs.combined = append(errs.combined, res.Position.DistanceTo(target.XY()))
		}
	}
	return errs, nil
}

// --- rendering helpers ---

// cm formats a meter quantity in centimeters.
func cm(v float64) string { return fmt.Sprintf("%.1f cm", v*100) }

// table renders an aligned text table.
func table(header []string, rows [][]string) []string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	renderRow := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	out := []string{renderRow(header)}
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	out = append(out, renderRow(rule))
	for _, row := range rows {
		out = append(out, renderRow(row))
	}
	return out
}

// summaryRow renders a labelled mathx.Summary as table cells (in cm).
func summaryRow(label string, s mathx.Summary) []string {
	return []string{
		label,
		fmt.Sprintf("%.1f", s.Mean*100),
		fmt.Sprintf("%.1f", s.Std*100),
		fmt.Sprintf("%.1f", s.Median*100),
		fmt.Sprintf("%.1f", s.P90*100),
		fmt.Sprintf("%.1f", s.Min*100),
		fmt.Sprintf("%.1f", s.Max*100),
	}
}

// summaryHeader matches summaryRow.
func summaryHeader(first string) []string {
	return []string{first, "mean", "std", "median", "p90", "min", "max"}
}

// cdfLines renders a compact CDF (a few key quantiles).
func cdfLines(label string, xs []float64) []string {
	if len(xs) == 0 {
		return nil
	}
	qs := []float64{10, 25, 50, 75, 90, 95, 100}
	parts := make([]string, 0, len(qs))
	for _, q := range qs {
		parts = append(parts, fmt.Sprintf("p%.0f=%s", q, cm(mathx.Percentile(xs, q))))
	}
	return []string{fmt.Sprintf("%s CDF: %s", label, strings.Join(parts, " "))}
}

// sortedKeys returns a map's keys in order, for deterministic output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// antennaType aliases the reader-antenna type for signatures in this
// package.
type antennaType = antenna.Antenna

// newDefaultTag mints a default-model tag (helper for scenario mutation).
func newDefaultTag(rng *rand.Rand) *tags.Tag { return tags.New(tags.DefaultModel(), rng) }
