package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/tagspin/tagspin/internal/antenna"
	"github.com/tagspin/tagspin/internal/channel"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/tags"
)

// RunF10a reproduces Fig. 10(a): the 2D localization error CDF over random
// reader placements, reported per axis and combined.
func RunF10a(opts Options) (Result, error) {
	n := opts.trials(50)
	errs, err := runTrials(trialSetup{}, n, opts.Seed+100)
	if err != nil {
		return Result{}, err
	}
	combined := mathx.Summarize(errs.combined)
	res := Result{
		ID:     "F10a",
		Title:  "2D localization error CDF (Fig. 10a)",
		Errors: map[string][]float64{"combined": errs.combined},
		Values: map[string]float64{
			"trials":       float64(n),
			"meanX":        mathx.Mean(errs.x),
			"meanY":        mathx.Mean(errs.y),
			"meanCombined": combined.Mean,
			"stdCombined":  combined.Std,
			"p90Combined":  combined.P90,
			"minCombined":  combined.Min,
			"maxCombined":  combined.Max,
		},
	}
	res.Lines = append(res.Lines, table(summaryHeader("axis (cm)"), [][]string{
		summaryRow("x", mathx.Summarize(errs.x)),
		summaryRow("y", mathx.Summarize(errs.y)),
		summaryRow("combined", combined),
	})...)
	res.Lines = append(res.Lines, cdfLines("combined", errs.combined)...)
	return res, nil
}

// RunF10b reproduces Fig. 10(b): the 3D error CDF; the z axis is worst
// because both disks spin in the horizontal plane.
func RunF10b(opts Options) (Result, error) {
	n := opts.trials(50)
	errs, err := runTrials(trialSetup{diskZ: 0.095, mode3D: true}, n, opts.Seed+101)
	if err != nil {
		return Result{}, err
	}
	combined := mathx.Summarize(errs.combined)
	res := Result{
		ID:     "F10b",
		Title:  "3D localization error CDF (Fig. 10b)",
		Errors: map[string][]float64{"combined": errs.combined},
		Values: map[string]float64{
			"trials":       float64(n),
			"meanX":        mathx.Mean(errs.x),
			"meanY":        mathx.Mean(errs.y),
			"meanZ":        mathx.Mean(errs.z),
			"meanCombined": combined.Mean,
			"stdCombined":  combined.Std,
			"p90Combined":  combined.P90,
			"minCombined":  combined.Min,
			"maxCombined":  combined.Max,
		},
	}
	res.Lines = append(res.Lines, table(summaryHeader("axis (cm)"), [][]string{
		summaryRow("x", mathx.Summarize(errs.x)),
		summaryRow("y", mathx.Summarize(errs.y)),
		summaryRow("z", mathx.Summarize(errs.z)),
		summaryRow("combined", combined),
	})...)
	res.Lines = append(res.Lines, cdfLines("combined", errs.combined)...)
	if res.Values["meanZ"] > res.Values["meanX"] && res.Values["meanZ"] > res.Values["meanY"] {
		res.Lines = append(res.Lines,
			"z error exceeds x/y, as the paper observes: both disks spin in the x-y plane,")
		res.Lines = append(res.Lines,
			"so aperture diversity concentrates on the horizontal axes")
	}
	return res, nil
}

// RunF11a reproduces Fig. 11(a): the mean relative phase versus orientation
// over the five tag models, referenced to ρ = 90°.
func RunF11a(opts Options) (Result, error) {
	rng := rand.New(rand.NewSource(opts.Seed + 110))
	cfg := channel.DefaultConfig()
	cfg.PhaseNoiseStd = 0.02 // averaged measurements, as in the figure
	sim, err := channel.NewSimulator(cfg, rng)
	if err != nil {
		return Result{}, err
	}
	ant := antenna.Antenna{ID: 1, Position: geom.V3(0, 2.0, 0), Boresight: -math.Pi / 2, GainDBi: 8}
	freq, err := channel.ChinaBand().FrequencyHz(channel.ChinaBand().MidChannel())
	if err != nil {
		return Result{}, err
	}
	tagsPerModel := opts.trials(2)
	steps := 72 // 5° resolution
	mean := make([]float64, steps)
	count := 0
	for _, model := range tags.Catalog() {
		for k := 0; k < tagsPerModel; k++ {
			tg := tags.New(model, rng)
			// The tag sits at a fixed position; we rotate its plane and
			// reference everything to the reading at ρ = 90°.
			tagPos := geom.V3(0, 0, 0)
			readerAz := ant.Position.Sub(tagPos).Azimuth()
			phaseAt := func(rho float64) (float64, bool) {
				q := channel.Query{
					Tag: tg, TagPos: tagPos,
					TagPlaneAngle: geom.NormalizeAngle(readerAz + rho),
					Antenna:       ant, FrequencyHz: freq,
				}
				var vals []float64
				for i := 0; i < 8; i++ {
					if obs, ok := sim.Observe(q); ok {
						vals = append(vals, obs.PhaseRad)
					}
				}
				if len(vals) == 0 {
					return 0, false
				}
				m, _ := mathx.CircularMean(vals)
				return m, true
			}
			ref, ok := phaseAt(math.Pi / 2)
			if !ok {
				continue
			}
			usable := true
			series := make([]float64, steps)
			for i := 0; i < steps; i++ {
				v, ok := phaseAt(2 * math.Pi * float64(i) / float64(steps))
				if !ok {
					usable = false
					break
				}
				series[i] = mathx.WrapToPi(v - ref)
			}
			if !usable {
				continue
			}
			for i := range mean {
				mean[i] += series[i]
			}
			count++
		}
	}
	if count == 0 {
		return Result{}, fmt.Errorf("f11a: no usable tags")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range mean {
		mean[i] /= float64(count)
		lo, hi = math.Min(lo, mean[i]), math.Max(hi, mean[i])
	}
	res := Result{
		ID:    "F11a",
		Title: "Phase vs orientation across tags (Fig. 11a)",
		Values: map[string]float64{
			"tags":          float64(count),
			"peakToPeakRad": hi - lo,
		},
	}
	var rows [][]string
	for i := 0; i < steps; i += 6 { // print every 30°
		rows = append(rows, []string{
			fmt.Sprintf("%d°", i*5),
			fmt.Sprintf("%+.3f", mean[i]),
		})
	}
	res.Lines = append(res.Lines, fmt.Sprintf("mean over %d tags (5 models), reference ρ=90°:", count))
	res.Lines = append(res.Lines, table([]string{"orientation", "Δphase (rad)"}, rows)...)
	res.Lines = append(res.Lines, fmt.Sprintf("peak-to-peak: %.2f rad (stable regularity across models)", hi-lo))
	return res, nil
}

// RunF11b reproduces Fig. 11(b): localization error with and without the
// orientation calibration step, on identical observations.
func RunF11b(opts Options) (Result, error) {
	n := opts.trials(60)
	with, err := runTrials(trialSetup{}, n, opts.Seed+111)
	if err != nil {
		return Result{}, err
	}
	without, err := runTrials(trialSetup{
		locator: core.Config{DisableOrientation: true},
	}, n, opts.Seed+111) // same seed: identical worlds and placements
	if err != nil {
		return Result{}, err
	}
	// Two more arms on the same worlds: the traditional Q profile with and
	// without calibration. The orientation effect's even harmonics are
	// nearly orthogonal to Q's aperture term, so Q degrades more gracefully
	// than R without calibration — but calibration helps both.
	withQ, err := runTrials(trialSetup{
		locator: core.Config{Kind: spectrum.KindQ},
	}, n, opts.Seed+111)
	if err != nil {
		return Result{}, err
	}
	withoutQ, err := runTrials(trialSetup{
		locator: core.Config{DisableOrientation: true, Kind: spectrum.KindQ},
	}, n, opts.Seed+111)
	if err != nil {
		return Result{}, err
	}
	mWith, mWithout := mathx.Summarize(with.combined), mathx.Summarize(without.combined)
	mWithQ, mWithoutQ := mathx.Summarize(withQ.combined), mathx.Summarize(withoutQ.combined)
	res := Result{
		ID:    "F11b",
		Title: "Orientation calibration impact (Fig. 11b)",
		Errors: map[string][]float64{
			"withR":    with.combined,
			"withoutR": without.combined,
			"withQ":    withQ.combined,
			"withoutQ": withoutQ.combined,
		},
		Values: map[string]float64{
			"trials":            float64(n),
			"meanWith":          mWith.Mean,
			"meanWithout":       mWithout.Mean,
			"meanWithQ":         mWithQ.Mean,
			"meanWithoutQ":      mWithoutQ.Mean,
			"improvement":       mWithout.Mean / mWith.Mean,
			"improvementMedian": mWithout.Median / mWith.Median,
			"improvementQ":      mWithoutQ.Mean / mWithQ.Mean,
			"p90With":           mWith.P90,
			"p90Without":        mWithout.P90,
		},
	}
	res.Lines = append(res.Lines, table(summaryHeader("variant (cm)"), [][]string{
		summaryRow("with calibration (R)", mWith),
		summaryRow("without calibration (R)", mWithout),
		summaryRow("with calibration (Q)", mWithQ),
		summaryRow("without calibration (Q)", mWithoutQ),
	})...)
	res.Lines = append(res.Lines, cdfLines("with-R", with.combined)...)
	res.Lines = append(res.Lines, cdfLines("without-R", without.combined)...)
	res.Lines = append(res.Lines,
		fmt.Sprintf("calibration improves mean error %.1f× on R (median %.1f×) and %.1f× on Q",
			res.Values["improvement"], res.Values["improvementMedian"], res.Values["improvementQ"]),
		"(the paper reports ≈1.7× for its R-based system)")
	return res, nil
}
