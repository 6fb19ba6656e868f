package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/tagspin/tagspin/internal/channel"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/estimate"
	"github.com/tagspin/tagspin/internal/gen2"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/hologram"
	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/spindisk"
	"github.com/tagspin/tagspin/internal/tags"
	"github.com/tagspin/tagspin/internal/testbed"
)

// collectVertical simulates one session of a tag spinning on a vertical
// disk. The tag plane azimuth is the disk plane's, so the orientation offset
// the channel injects is constant and cancels with θ_div.
func collectVertical(sim *channel.Simulator, tg *tags.Tag, disk spindisk.VerticalDisk, ant channelAntenna, freq float64, rotations, rate float64) []phase.Snapshot {
	period := time.Duration(2 * math.Pi / math.Abs(disk.Omega) * float64(time.Second))
	duration := time.Duration(rotations * float64(period))
	step := time.Duration(float64(time.Second) / rate)
	var snaps []phase.Snapshot
	for tm := time.Duration(0); tm < duration; tm += step {
		a := disk.Angle(tm)
		obs, ok := sim.Observe(channel.Query{
			Tag:           tg,
			TagPos:        disk.TagPositionAt(a),
			TagPlaneAngle: disk.PlaneAzimuth,
			Antenna:       ant,
			FrequencyHz:   freq,
		})
		if !ok {
			continue
		}
		snaps = append(snaps, phase.Snapshot{Time: tm, Phase: obs.PhaseRad, RSSIdBm: obs.RSSIdBm, FrequencyHz: freq, AntennaID: ant.ID})
	}
	return snaps
}

// channelAntenna aliases the antenna type to keep the signature readable.
type channelAntenna = antennaType

// RunX1 evaluates the paper's future-work extension: a third tag spinning on
// a *vertical* disk resolves the ±z mirror ambiguity that a dead-space rule
// can only guess at. Readers are placed above AND below the disk plane; the
// dead-space rule (prefer z ≥ 0) is right only when the reader happens to be
// above, while the vertical disk recovers the sign from the phases.
func RunX1(opts Options) (Result, error) {
	n := opts.trials(20)
	rng := rand.New(rand.NewSource(opts.Seed + 400))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(0, 2.5, 0))
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		return Result{}, err
	}
	vDisk := spindisk.VerticalDisk{
		Center:       geom.V3(0, -0.35, 0),
		Radius:       0.10,
		Omega:        math.Pi,
		PlaneAzimuth: math.Pi / 2, // plane faces the survey region
	}
	vTag := tags.New(tags.DefaultModel(), rng)
	vParams := spectrum.VerticalParams{Disk: vDisk}
	loc := core.NewLocator(core.Config{ZPolicy: 0}) // default: prefer z ≥ 0

	var deadSpaceErr, verticalErr []float64
	signCorrect := 0
	for i := 0; i < n; i++ {
		zSign := 1.0
		if i%2 == 1 {
			zSign = -1
		}
		p := placement(rng, 0)
		target := geom.V3(p.X, p.Y, zSign*(0.4+1.0*rng.Float64()))
		sc.PlaceReader(target)
		col, err := sc.Collect(rng)
		if err != nil {
			return Result{}, err
		}
		res, err := loc.Locate3D(registered, col.Obs)
		if err != nil {
			return Result{}, err
		}
		deadSpaceErr = append(deadSpaceErr, res.Position.DistanceTo(target))

		// The vertical disk's session decides between the two candidates.
		sim, err := channel.NewSimulator(sc.Channel, rng)
		if err != nil {
			return Result{}, err
		}
		freq, err := sc.Band.FrequencyHz(sc.Band.MidChannel())
		if err != nil {
			return Result{}, err
		}
		vSnaps := collectVertical(sim, vTag, vDisk, sc.Antenna, freq, 2, 80)
		if len(vSnaps) < 10 {
			return Result{}, fmt.Errorf("x1 trial %d: only %d vertical reads", i, len(vSnaps))
		}
		relCandidate := res.Position.Sub(vDisk.Center)
		signedPolar, err := spectrum.ResolveMirror(vSnaps, vParams, spectrum.KindR,
			relCandidate.Azimuth(), relCandidate.Polar())
		if err != nil {
			return Result{}, err
		}
		chosen := res.Position
		if signedPolar < 0 && chosen.Z > 0 || signedPolar > 0 && chosen.Z < 0 {
			chosen = res.Mirror
		}
		verticalErr = append(verticalErr, chosen.DistanceTo(target))
		if chosen.Z*target.Z > 0 {
			signCorrect++
		}
	}
	mDead, mVert := mathx.Summarize(deadSpaceErr), mathx.Summarize(verticalErr)
	res := Result{
		ID:    "X1",
		Title: "Extension: vertical disk resolves the z-mirror ambiguity",
		Values: map[string]float64{
			"trials":        float64(n),
			"meanDeadSpace": mDead.Mean,
			"meanVertical":  mVert.Mean,
			"signAccuracy":  float64(signCorrect) / float64(n),
		},
	}
	res.Lines = append(res.Lines, table(summaryHeader("strategy (cm)"), [][]string{
		summaryRow("dead-space rule (z ≥ 0)", mDead),
		summaryRow("vertical third disk", mVert),
	})...)
	res.Lines = append(res.Lines,
		"readers alternate above/below the disk plane; the dead-space rule is right",
		"half the time by construction, the vertical disk picked the correct sign in",
		fmt.Sprintf("%.0f%% of %d trials (the paper leaves this as future work, §V-B)",
			100*res.Values["signAccuracy"], n))
	return res, nil
}

// RunA8 compares Tagspin's angle-spectrum pipeline against direct
// holographic localization (Miesen et al. / Tagoram style, §VIII): the
// hologram uses exact distances (no Eqn. 2 far-field approximation) and
// fuses the disks in one surface, at a much higher search cost.
func RunA8(opts Options) (Result, error) {
	n := opts.trials(15)
	rng := rand.New(rand.NewSource(opts.Seed + 401))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(0, 2.5, 0))
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		return Result{}, err
	}
	loc := core.NewLocator(core.Config{})
	bounds := hologram.Rect{MinX: -4, MinY: -0.5, MaxX: 4, MaxY: 4}

	var pipelineErr, hologramErr []float64
	var pipelineDur, hologramDur time.Duration
	for i := 0; i < n; i++ {
		target := placement(rng, 0)
		sc.PlaceReader(target)
		col, err := sc.Collect(rng)
		if err != nil {
			return Result{}, err
		}
		start := time.Now()
		res, err := loc.Locate2D(registered, col.Obs)
		if err != nil {
			return Result{}, err
		}
		pipelineDur += time.Since(start)
		pipelineErr = append(pipelineErr, res.Position.DistanceTo(target.XY()))

		var sessions []hologram.Session
		for _, st := range registered {
			snaps := col.Obs[st.EPC]
			phase.SortByTime(snaps)
			// The hologram gets the same orientation-corrected snapshots
			// the pipeline's final pass used, via the public calibration.
			corrected := st.Orientation.Apply(snaps, func(k int) float64 {
				a := st.Disk.Angle(snaps[k].Time)
				rim := st.Disk.TagPositionAt(a)
				return geom.NormalizeAngle(st.Disk.TagPlaneAngle(a) -
					geom.V3(res.Position.X, res.Position.Y, 0).Sub(rim).Azimuth())
			})
			sessions = append(sessions, hologram.Session{Disk: st.Disk, Snapshots: corrected})
		}
		start = time.Now()
		hpos, _, err := hologram.Locate2D(sessions, hologram.Options{Bounds: bounds})
		if err != nil {
			return Result{}, err
		}
		hologramDur += time.Since(start)
		hologramErr = append(hologramErr, hpos.DistanceTo(target.XY()))
	}
	mPipe, mHolo := mathx.Summarize(pipelineErr), mathx.Summarize(hologramErr)
	res := Result{
		ID:    "A8",
		Title: "Ablation: angle spectrum vs holographic search",
		Values: map[string]float64{
			"trials":       float64(n),
			"meanPipeline": mPipe.Mean,
			"meanHologram": mHolo.Mean,
			"pipelineMs":   float64(pipelineDur.Milliseconds()) / float64(n),
			"hologramMs":   float64(hologramDur.Milliseconds()) / float64(n),
		},
	}
	res.Lines = append(res.Lines, table(summaryHeader("method (cm)"), [][]string{
		summaryRow("angle spectrum (Tagspin)", mPipe),
		summaryRow("hologram (exact distances)", mHolo),
	})...)
	res.Lines = append(res.Lines, fmt.Sprintf(
		"per-locate cost: pipeline %.0f ms vs hologram %.0f ms",
		res.Values["pipelineMs"], res.Values["hologramMs"]))
	return res, nil
}

// RunA9 compares the uniform-rate read scheduler against the EPC Gen2
// inventory MAC (slotted ALOHA, adaptive Q): localization accuracy should
// be indifferent to the timing model, since the SAR pipeline only needs
// enough snapshots spread over the rotation.
func RunA9(opts Options) (Result, error) {
	n := opts.trials(15)
	uniform, err := runTrials(trialSetup{}, n, opts.Seed+402)
	if err != nil {
		return Result{}, err
	}
	macErrs, err := runTrials(trialSetup{
		modify: func(sc *testbed.Scenario) {
			sc.Gen2 = &gen2.Config{AdaptiveQ: true}
		},
	}, n, opts.Seed+402)
	if err != nil {
		return Result{}, err
	}
	mUni, mMac := mathx.Summarize(uniform.combined), mathx.Summarize(macErrs.combined)
	res := Result{
		ID:    "A9",
		Title: "Ablation: Gen2 MAC timing vs uniform sampling",
		Values: map[string]float64{
			"trials":      float64(n),
			"meanUniform": mUni.Mean,
			"meanGen2":    mMac.Mean,
		},
	}
	res.Lines = append(res.Lines, table(summaryHeader("scheduler (cm)"), [][]string{
		summaryRow("uniform 80 Hz", mUni),
		summaryRow("Gen2 MAC (slotted ALOHA)", mMac),
	})...)
	res.Lines = append(res.Lines,
		"(bursty MAC timing does not hurt — the spectrum only needs snapshots spread",
		" across the rotation; the MAC's higher singulation count per session helps)")
	return res, nil
}

// mahalanobis2D returns d'C⁻¹d for the horizontal 2×2 block of a position
// covariance, or a negative value when the block is singular.
func mahalanobis2D(dx, dy float64, cov [3][3]float64) float64 {
	c00, c01, c11 := cov[0][0], cov[0][1], cov[1][1]
	det := c00*c11 - c01*c01
	if det <= 0 {
		return -1
	}
	return (dx*(c11*dx-c01*dy) + dy*(c00*dy-c01*dx)) / det
}

// RunX2 A/Bs the two solve backends: the grid pipeline (per-tag spectrum
// peaks intersected as bearing lines) against the joint maximum-likelihood
// estimator (internal/estimate), which searches the reader position directly
// and scores by the phase likelihood across all disks. Three readouts: the
// 2D error CDFs over a shared placement sweep, the fraction of trials whose
// truth falls inside the ML 1σ confidence ellipse (≈39% if the covariance is
// calibrated), and a z-sign arm with disks at two heights, where readers
// below the planes defeat the grid's dead-space default but the likelihood
// picks the side from the evidence.
func RunX2(opts Options) (Result, error) {
	n := opts.trials(20)
	rng := rand.New(rand.NewSource(opts.Seed + 410))
	grid := core.NewLocator(core.Config{})
	ml := grid.WithEstimator(estimate.NewML(estimate.Config{}))

	// Arm 1: planar sweep on the default (coplanar) deployment — both
	// backends see identical observations, placement by placement.
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(0, 2.5, 0))
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		return Result{}, err
	}
	var gridErr, mlErr []float64
	covered, confTrials := 0, 0
	for i := 0; i < n; i++ {
		target := placement(rng, 0)
		sc.PlaceReader(target)
		col, err := sc.Collect(rng)
		if err != nil {
			return Result{}, err
		}
		gres, err := grid.Locate2D(registered, col.Obs)
		if err != nil {
			return Result{}, err
		}
		gridErr = append(gridErr, gres.Position.DistanceTo(target.XY()))
		mres, err := ml.Locate2D(registered, col.Obs)
		if err != nil {
			return Result{}, err
		}
		mlErr = append(mlErr, mres.Position.DistanceTo(target.XY()))
		if c := mres.Confidence; c != nil {
			if m := mahalanobis2D(mres.Position.X-target.X, mres.Position.Y-target.Y, c.Cov); m >= 0 {
				confTrials++
				if m <= 1 {
					covered++
				}
			}
		}
	}

	// Arm 2: disks at two heights break the ±z mirror symmetry, so the
	// likelihood can tell above from below; readers alternate sides, making
	// the grid's above-planes default wrong half the time by construction.
	sc2 := testbed.DefaultScenario(0, rng)
	sc2.Installs[1].Disk.Center.Z = 0.4
	sc2.PlaceReader(geom.V3(0, 2.5, 0))
	registered2, err := sc2.CalibratedSpinningTags(rng)
	if err != nil {
		return Result{}, err
	}
	var grid3Err, ml3Err []float64
	signGrid, signML := 0, 0
	for i := 0; i < n; i++ {
		zSign := 1.0
		if i%2 == 1 {
			zSign = -1
		}
		p := placement(rng, 0)
		target := geom.V3(p.X, p.Y, zSign*(0.8+0.6*rng.Float64()))
		sc2.PlaceReader(target)
		col, err := sc2.Collect(rng)
		if err != nil {
			return Result{}, err
		}
		gres, err := grid.Locate3D(registered2, col.Obs)
		if err != nil {
			return Result{}, err
		}
		grid3Err = append(grid3Err, gres.Position.DistanceTo(target))
		if gres.Position.Z*target.Z > 0 {
			signGrid++
		}
		mres, err := ml.Locate3D(registered2, col.Obs)
		if err != nil {
			return Result{}, err
		}
		ml3Err = append(ml3Err, mres.Position.DistanceTo(target))
		if mres.Position.Z*target.Z > 0 {
			signML++
		}
	}

	mGrid, mML := mathx.Summarize(gridErr), mathx.Summarize(mlErr)
	mGrid3, mML3 := mathx.Summarize(grid3Err), mathx.Summarize(ml3Err)
	coverage := 0.0
	if confTrials > 0 {
		coverage = float64(covered) / float64(confTrials)
	}
	res := Result{
		ID:    "X2",
		Title: "Extension: joint ML estimator vs bearing grid, with confidence",
		Errors: map[string][]float64{
			"grid2D": gridErr,
			"ml2D":   mlErr,
			"grid3D": grid3Err,
			"ml3D":   ml3Err,
		},
		Values: map[string]float64{
			"trials":         float64(n),
			"mean2DGrid":     mGrid.Mean,
			"mean2DML":       mML.Mean,
			"coverage1Sigma": coverage,
			"mean3DGrid":     mGrid3.Mean,
			"mean3DML":       mML3.Mean,
			"signAccGrid":    float64(signGrid) / float64(n),
			"signAccML":      float64(signML) / float64(n),
		},
	}
	res.Lines = append(res.Lines, table(summaryHeader("backend, 2D (cm)"), [][]string{
		summaryRow("bearing grid", mGrid),
		summaryRow("joint ML", mML),
	})...)
	res.Lines = append(res.Lines, cdfLines("grid 2D", gridErr)...)
	res.Lines = append(res.Lines, cdfLines("ml   2D", mlErr)...)
	res.Lines = append(res.Lines, fmt.Sprintf(
		"ML 1σ ellipse contained the truth in %.0f%% of %d trials (nominal 39%% for a calibrated 2D Gaussian)",
		100*coverage, confTrials))
	res.Lines = append(res.Lines, table(summaryHeader("backend, 3D staggered (cm)"), [][]string{
		summaryRow("bearing grid (z ≥ planes)", mGrid3),
		summaryRow("joint ML (likelihood)", mML3),
	})...)
	res.Lines = append(res.Lines, fmt.Sprintf(
		"readers alternate above/below the staggered disk planes: grid picked the correct z sign in %.0f%%, ML in %.0f%% of %d trials",
		100*res.Values["signAccGrid"], 100*res.Values["signAccML"], n))
	return res, nil
}
