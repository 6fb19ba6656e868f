// Package core orchestrates the full Tagspin pipeline (§II): given phase
// snapshots of registered spinning tags, it calibrates the phase sequences,
// generates an angle spectrum per tag, and intersects the resulting bearings
// to pinpoint the reader antenna in 2D or 3D.
//
// The orientation calibration runs as an iterated scheme: a bootstrap pass
// first estimates the reader position from uncalibrated snapshots; then up
// to three correction passes each compute the orientation ρ of every
// snapshot against the previous pass's position, subtract the fitted
// phase-orientation function, and recompute the spectrum, stopping early
// once the position moves less than 1 cm. (§III-B specifies *that* the
// offset must be erased per sampled orientation; the orientation is only
// computable once a direction estimate exists, hence the bootstrap pass.)
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/locate"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/spindisk"
	"github.com/tagspin/tagspin/internal/tags"
)

// Errors returned by the pipeline.
var (
	// ErrTooFewTags reports fewer than two usable spinning tags.
	ErrTooFewTags = errors.New("core: need snapshots from at least two spinning tags")
	// ErrTooFewSnapshots reports a tag with too few reads to form a
	// spectrum.
	ErrTooFewSnapshots = errors.New("core: too few snapshots for tag")
)

// SpinningTag is one registered infrastructure tag: its identity, disk
// geometry as surveyed at installation, and (optionally) the orientation
// calibration fitted during the §III-B prelude.
type SpinningTag struct {
	// EPC identifies the tag.
	EPC tags.EPC
	// Disk is the nominal disk geometry.
	Disk spindisk.Disk
	// Orientation, when non-nil, enables the orientation correction.
	Orientation *phase.OrientationCalibration
}

// Config tunes the pipeline. Every spectrum evaluation runs the one exact
// kernel; no field selects another.
type Config struct {
	// Kind selects the power profile; zero means the enhanced KindR.
	Kind spectrum.Kind
	// Sigma is the assumed phase noise for R weights; zero means
	// spectrum.DefaultSigma.
	Sigma float64
	// LiteralReference uses Definition 4.1's weights verbatim instead of
	// the robust common-offset-cancelling variant (ablation A6; see
	// spectrum.Params.LiteralReference).
	LiteralReference bool
	// Search tunes the peak search.
	Search spectrum.SearchOptions
	// MinSnapshots is the per-tag minimum; zero means 10.
	MinSnapshots int
	// DisableOrientation skips the orientation correction even when a
	// calibration is present (the Fig. 11(b) control arm).
	DisableOrientation bool
	// ZPolicy resolves the 3D mirror ambiguity; zero means
	// locate.ZPreferNonNegative.
	ZPolicy locate.ZPolicy
	// Estimator is the solve backend that fuses per-tag spectrum peaks
	// into a position; nil means the GridEstimator (bearing-line
	// intersection with ZPolicy mirror resolution). See internal/estimate
	// for the joint maximum-likelihood backend.
	Estimator Estimator
}

// kind returns the effective profile kind.
func (c Config) kind() spectrum.Kind {
	if c.Kind == 0 {
		return spectrum.KindR
	}
	return c.Kind
}

// minSnapshots returns the effective per-tag minimum.
func (c Config) minSnapshots() int {
	if c.MinSnapshots <= 0 {
		return 10
	}
	return c.MinSnapshots
}

// Locator runs the Tagspin pipeline.
type Locator struct {
	cfg Config
	est Estimator
}

// NewLocator builds a Locator.
func NewLocator(cfg Config) *Locator {
	est := cfg.Estimator
	if est == nil {
		est = GridEstimator{Policy: cfg.ZPolicy}
	}
	return &Locator{cfg: cfg, est: est}
}

// WithEstimator returns a copy of the Locator that solves through est,
// sharing every other setting. It lets a server keep one configuration and
// swap the solve backend per request.
func (l *Locator) WithEstimator(est Estimator) *Locator {
	cp := &Locator{cfg: l.cfg, est: est}
	if est == nil {
		cp.est = GridEstimator{Policy: l.cfg.ZPolicy}
	}
	return cp
}

// TagEstimate is the per-tag intermediate result: the angle spectrum peak.
type TagEstimate struct {
	// EPC identifies the spinning tag.
	EPC tags.EPC
	// Azimuth is the estimated direction from disk center to reader.
	Azimuth float64
	// Polar is the estimated polar angle (3D only; 0 in 2D).
	Polar float64
	// Power is the profile value at the peak, used as fusion weight.
	Power float64
	// Snapshots is how many reads contributed.
	Snapshots int
}

// Result2D is the output of Locate2D.
type Result2D struct {
	// Position is the estimated reader position in the plane.
	Position geom.Vec2
	// Bearings holds the per-tag spectrum peaks that were fused.
	Bearings []TagEstimate
	// Backend names the estimator that produced Position ("grid", "ml").
	Backend string
	// Confidence, when the backend reports uncertainty (the ML backend),
	// carries the covariance and 1σ ellipse; nil otherwise.
	Confidence *Confidence
}

// Result3D is the output of Locate3D.
type Result3D struct {
	// Position is the selected reader position estimate.
	Position geom.Vec3
	// Mirror is the rejected mirror candidate, reflected about the disk
	// planes (§V-B).
	Mirror geom.Vec3
	// ZSpread is the disagreement between per-tag height estimates.
	ZSpread float64
	// Bearings holds the per-tag spectrum peaks that were fused.
	Bearings []TagEstimate
	// Backend names the estimator that produced Position ("grid", "ml").
	Backend string
	// Confidence, when the backend reports uncertainty (the ML backend),
	// carries the covariance, 1σ ellipse, and mirror likelihood margin.
	Confidence *Confidence
}

// Observations maps each spinning tag's EPC to its snapshot series for one
// collection session against one target antenna.
type Observations map[tags.EPC][]phase.Snapshot

// selectSnapshots validates, sorts, and reduces a tag's snapshots to the
// dominant carrier frequency (with hopping readers, mixing channels would
// break the θ_div cancellation because the D-dependent term differs per λ).
// The dominant carrier's reads are copied once, in input order, before the
// time sort.
func (l *Locator) selectSnapshots(snaps []phase.Snapshot) ([]phase.Snapshot, error) {
	if len(snaps) < l.cfg.minSnapshots() {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewSnapshots, len(snaps), l.cfg.minSnapshots())
	}
	freq, n := dominantCarrier(snaps)
	if n < l.cfg.minSnapshots() {
		return nil, fmt.Errorf("%w: dominant channel has %d reads, need %d",
			ErrTooFewSnapshots, n, l.cfg.minSnapshots())
	}
	out := make([]phase.Snapshot, 0, n)
	for _, s := range snaps {
		if s.FrequencyHz == freq {
			out = append(out, s)
		}
	}
	phase.SortByTime(out)
	return out, nil
}

// dominantCarrier returns the carrier frequency with the most reads and its
// read count; a tie goes to the lower frequency. A NaN frequency equals no
// carrier, so its reads belong to none.
func dominantCarrier(snaps []phase.Snapshot) (freq float64, n int) {
	counts := make(map[float64]int, 1)
	for _, s := range snaps {
		if !math.IsNaN(s.FrequencyHz) {
			counts[s.FrequencyHz]++
		}
	}
	for f, c := range counts {
		if c > n || (c == n && f < freq) {
			freq, n = f, c
		}
	}
	return freq, n
}

// applyOrientation removes the fitted orientation offset from snaps given a
// coarse reader position estimate. The orientation ρ of each snapshot is
// computed against the sight line from the tag's *rim position* at that
// instant — using the disk center instead would leave an ω-frequency
// residual (the rim-to-reader azimuth oscillates by ≈r/D) that couples into
// the aperture term.
func applyOrientation(tag SpinningTag, snaps []phase.Snapshot, readerPos geom.Vec3) []phase.Snapshot {
	return tag.Orientation.Apply(snaps, func(i int) float64 {
		a := tag.Disk.Angle(snaps[i].Time)
		rim := tag.Disk.TagPositionAt(a)
		az := readerPos.Sub(rim).Azimuth()
		return geom.NormalizeAngle(tag.Disk.TagPlaneAngle(a) - az)
	})
}

// estimate2D runs the per-tag 2D spectrum. When correctAgainst is non-nil
// and the tag has an orientation calibration, the fitted offset is removed
// against that reader-position estimate first. The returned EstimatorTag
// carries the (possibly corrected) input snapshots so a model-based solve
// backend can rebuild its likelihood from exactly what the peak saw.
func (l *Locator) estimate2D(tag SpinningTag, selected []phase.Snapshot, kind spectrum.Kind, correctAgainst *geom.Vec2) (EstimatorTag, error) {
	params := spectrum.Params{Disk: tag.Disk, Sigma: l.cfg.Sigma, LiteralReference: l.cfg.LiteralReference}
	input := selected
	if correctAgainst != nil && tag.Orientation != nil && !l.cfg.DisableOrientation {
		input = applyOrientation(tag, selected, geom.V3(correctAgainst.X, correctAgainst.Y, tag.Disk.Center.Z))
	}
	ev, err := spectrum.NewEvaluator(input, params, kind)
	if err != nil {
		return EstimatorTag{}, fmt.Errorf("tag %s: %w", tag.EPC, err)
	}
	az, power := spectrum.FindPeak2DEval(ev, l.cfg.Search)
	return EstimatorTag{
		Tag:   tag,
		Snaps: input,
		Est: TagEstimate{
			EPC:       tag.EPC,
			Azimuth:   az,
			Power:     power,
			Snapshots: len(selected),
		},
	}, nil
}

// estimate3D is the 3D analogue of estimate2D.
func (l *Locator) estimate3D(tag SpinningTag, selected []phase.Snapshot, kind spectrum.Kind, correctAgainst *geom.Vec3) (EstimatorTag, error) {
	params := spectrum.Params{Disk: tag.Disk, Sigma: l.cfg.Sigma, LiteralReference: l.cfg.LiteralReference}
	input := selected
	if correctAgainst != nil && tag.Orientation != nil && !l.cfg.DisableOrientation {
		input = applyOrientation(tag, selected, *correctAgainst)
	}
	ev, err := spectrum.NewEvaluator(input, params, kind)
	if err != nil {
		return EstimatorTag{}, fmt.Errorf("tag %s: %w", tag.EPC, err)
	}
	pk := spectrum.FindPeak3DEval(ev, l.cfg.Search)
	return EstimatorTag{
		Tag:   tag,
		Snaps: input,
		Est: TagEstimate{
			EPC:       tag.EPC,
			Azimuth:   pk.Azimuth,
			Polar:     pk.Polar,
			Power:     pk.Power,
			Snapshots: len(selected),
		},
	}, nil
}

// orderTags returns the registered tags that have observations, in a
// deterministic order (by EPC).
func orderTags(registered []SpinningTag, obs Observations) []SpinningTag {
	var present []SpinningTag
	for _, t := range registered {
		if len(obs[t.EPC]) > 0 {
			present = append(present, t)
		}
	}
	sort.Slice(present, func(i, j int) bool {
		return present[i].EPC.String() < present[j].EPC.String()
	})
	return present
}

// estimateAll runs fn — a per-tag spectrum estimate — for every present tag
// concurrently. The per-tag peak searches are independent and dominate a
// pass's cost. Each tag's search runs serially on its own goroutine: the
// synthesized coarse and refinement routes submit no jobs to the dense-scan
// scheduler (internal/sched), so this per-tag fan-out is the locate's
// only parallelism, bounded by GOMAXPROCS. Results land in tag-index slots
// and the first error *in tag order* is returned, so the output is
// deterministic regardless of goroutine scheduling.
func estimateAll(present []SpinningTag, fn func(tag SpinningTag) (EstimatorTag, error)) ([]EstimatorTag, error) {
	etags := make([]EstimatorTag, len(present))
	errs := make([]error, len(present))
	var wg sync.WaitGroup
	wg.Add(len(present))
	for i, tag := range present {
		go func(i int, tag SpinningTag) {
			defer wg.Done()
			etags[i], errs[i] = fn(tag)
		}(i, tag)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return etags, nil
}

// solvePass2D runs one estimate-and-solve pass through the configured
// estimator backend.
func (l *Locator) solvePass2D(present []SpinningTag, selected map[string][]phase.Snapshot, kind spectrum.Kind, correctAgainst *geom.Vec2) ([]EstimatorTag, Solution2D, error) {
	etags, err := estimateAll(present, func(tag SpinningTag) (EstimatorTag, error) {
		return l.estimate2D(tag, selected[tag.EPC.String()], kind, correctAgainst)
	})
	if err != nil {
		return nil, Solution2D{}, err
	}
	sol, err := l.est.Solve2D(etags)
	if err != nil {
		return nil, Solution2D{}, err
	}
	return etags, sol, nil
}

// Locate2D estimates the reader position in the plane from the observations
// of two or more registered spinning tags. When orientation calibrations are
// available, an uncorrected solve provides the coarse position the
// per-snapshot orientations are computed against, then up to three
// correction passes solve the corrected snapshots again, each against the
// previous position (§III-B's Step 2 needs a direction, which only exists
// after a first estimate; finish2D has the loop).
func (l *Locator) Locate2D(registered []SpinningTag, obs Observations) (Result2D, error) {
	return l.Locate2DContext(context.Background(), registered, obs)
}

// ctxErr wraps a context failure so callers can distinguish an abandoned
// request from a pipeline failure.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: locate aborted: %w", err)
	}
	return nil
}

// Locate2DContext is Locate2D with cancellation: the context is checked
// between spectrum passes (each pass scans the full angle grid for every
// tag), so an abandoned request stops burning cores at the next pass
// boundary instead of running the full multi-pass solve to completion.
func (l *Locator) Locate2DContext(ctx context.Context, registered []SpinningTag, obs Observations) (Result2D, error) {
	present, selected, err := l.selectAll(registered, obs)
	if err != nil {
		return Result2D{}, err
	}
	if err := ctxErr(ctx); err != nil {
		return Result2D{}, err
	}
	etags, sol, err := l.solvePass2D(present, selected, l.bootstrapKind(present), nil)
	if err != nil {
		return Result2D{}, err
	}
	return l.finish2D(ctx, present, selected, etags, sol)
}

// bootstrapKind returns the profile kind of the first solve pass. The
// enhanced profile's likelihood weights are brittle under the
// *uncalibrated* orientation error (structured, not Gaussian), so whenever
// orientation passes will follow, the bootstrap pass always uses the
// traditional Q profile; the corrected passes use the configured profile.
func (l *Locator) bootstrapKind(present []SpinningTag) spectrum.Kind {
	if l.wantsOrientation(present) {
		return spectrum.KindQ
	}
	return l.cfg.kind()
}

// finish2D completes a 2D locate from the bootstrap pass's estimates:
// when orientation calibrations apply, it iterates correction passes — a
// better position estimate gives more accurate per-snapshot orientations,
// which gives a better position; convergence is fast since 1 cm of position
// movement changes ρ by well under a degree at operating distances. Both
// the batch Locate2DContext and the streaming Finalize2D end here, so the
// two paths share everything after the bootstrap estimates.
func (l *Locator) finish2D(ctx context.Context, present []SpinningTag, selected map[string][]phase.Snapshot, etags []EstimatorTag, sol Solution2D) (Result2D, error) {
	if l.wantsOrientation(present) {
		for pass := 0; pass < 3; pass++ {
			if err := ctxErr(ctx); err != nil {
				return Result2D{}, err
			}
			coarse := sol.Position
			var err error
			etags, sol, err = l.solvePass2D(present, selected, l.cfg.kind(), &coarse)
			if err != nil {
				return Result2D{}, err
			}
			if sol.Position.DistanceTo(coarse) < 0.01 {
				break
			}
		}
	}
	return Result2D{
		Position:   sol.Position,
		Bearings:   tagEstimates(etags),
		Backend:    l.est.Name(),
		Confidence: sol.Confidence,
	}, nil
}

// selectAll validates and channel-filters every present tag's snapshots.
func (l *Locator) selectAll(registered []SpinningTag, obs Observations) ([]SpinningTag, map[string][]phase.Snapshot, error) {
	present := orderTags(registered, obs)
	if len(present) < 2 {
		return nil, nil, ErrTooFewTags
	}
	selected := make(map[string][]phase.Snapshot, len(present))
	for _, tag := range present {
		snaps, err := l.selectSnapshots(obs[tag.EPC])
		if err != nil {
			return nil, nil, fmt.Errorf("tag %s: %w", tag.EPC, err)
		}
		selected[tag.EPC.String()] = snaps
	}
	return present, selected, nil
}

// wantsOrientation reports whether a correction pass would change anything.
func (l *Locator) wantsOrientation(present []SpinningTag) bool {
	if l.cfg.DisableOrientation {
		return false
	}
	for _, tag := range present {
		if tag.Orientation != nil {
			return true
		}
	}
	return false
}

// solvePass3D runs one estimate-and-solve pass through the configured
// estimator backend.
func (l *Locator) solvePass3D(present []SpinningTag, selected map[string][]phase.Snapshot, kind spectrum.Kind, correctAgainst *geom.Vec3) ([]EstimatorTag, Solution3D, error) {
	etags, err := estimateAll(present, func(tag SpinningTag) (EstimatorTag, error) {
		return l.estimate3D(tag, selected[tag.EPC.String()], kind, correctAgainst)
	})
	if err != nil {
		return nil, Solution3D{}, err
	}
	sol, err := l.est.Solve3D(etags)
	if err != nil {
		return nil, Solution3D{}, err
	}
	return etags, sol, nil
}

// Locate3D estimates the reader position in space from the observations of
// two or more registered spinning tags, with the same orientation passes
// as Locate2D.
func (l *Locator) Locate3D(registered []SpinningTag, obs Observations) (Result3D, error) {
	return l.Locate3DContext(context.Background(), registered, obs)
}

// Locate3DContext is Locate3D with cancellation, checked between spectrum
// passes exactly as in Locate2DContext.
func (l *Locator) Locate3DContext(ctx context.Context, registered []SpinningTag, obs Observations) (Result3D, error) {
	present, selected, err := l.selectAll(registered, obs)
	if err != nil {
		return Result3D{}, err
	}
	if err := ctxErr(ctx); err != nil {
		return Result3D{}, err
	}
	etags, sol, err := l.solvePass3D(present, selected, l.bootstrapKind(present), nil)
	if err != nil {
		return Result3D{}, err
	}
	return l.finish3D(ctx, present, selected, etags, sol)
}

// finish3D completes a 3D locate from the bootstrap pass's estimates and
// solution: orientation-correction passes iterate against the selected
// candidate (the orientation ρ is, to first order, insensitive to the sign
// of z, so correcting against it is safe even when the backend resolved the
// mirror by policy rather than evidence). Mirror selection itself belongs to
// the estimator backend. Shared by the batch and streaming paths like
// finish2D.
func (l *Locator) finish3D(ctx context.Context, present []SpinningTag, selected map[string][]phase.Snapshot, etags []EstimatorTag, sol Solution3D) (Result3D, error) {
	if l.wantsOrientation(present) {
		for pass := 0; pass < 3; pass++ {
			if err := ctxErr(ctx); err != nil {
				return Result3D{}, err
			}
			coarse := sol.Position
			var err error
			etags, sol, err = l.solvePass3D(present, selected, l.cfg.kind(), &coarse)
			if err != nil {
				return Result3D{}, err
			}
			if sol.Position.DistanceTo(coarse) < 0.01 {
				break
			}
		}
	}
	return Result3D{
		Position:   sol.Position,
		Mirror:     sol.Mirror,
		ZSpread:    sol.ZSpread,
		Bearings:   tagEstimates(etags),
		Backend:    l.est.Name(),
		Confidence: sol.Confidence,
	}, nil
}

// Diagnosis reports how well a tag's snapshots fit its registered disk
// geometry. Operators use it to catch registry mistakes — a wrong angular
// velocity, radius, or phase reference makes the angle spectrum incoherent
// long before it shows up as a silently wrong position.
type Diagnosis struct {
	// EPC identifies the tag.
	EPC tags.EPC
	// Snapshots is how many reads were usable.
	Snapshots int
	// PeakPower is the Q-profile peak (1.0 = perfectly coherent stack).
	PeakPower float64
	// Coherent reports whether the fit clears CoherenceThreshold.
	Coherent bool
}

// CoherenceThreshold is the Q-profile peak power below which a registration
// is considered inconsistent with the measurements. A correct geometry
// under nominal noise scores ≈e^(−σ²/2) ≈ 0.95; mis-registered kinematics
// scatter the phasors toward ~1/√n.
const CoherenceThreshold = 0.6

// ValidateRegistration checks one registered tag against a snapshot series.
// It uses the Q profile: unlike R it has no weighting that could mask an
// incoherent stack.
func (l *Locator) ValidateRegistration(tag SpinningTag, snaps []phase.Snapshot) (Diagnosis, error) {
	selected, err := l.selectSnapshots(snaps)
	if err != nil {
		return Diagnosis{}, fmt.Errorf("tag %s: %w", tag.EPC, err)
	}
	params := spectrum.Params{Disk: tag.Disk, Sigma: l.cfg.Sigma}
	ev, err := spectrum.NewEvaluator(selected, params, spectrum.KindQ)
	if err != nil {
		return Diagnosis{}, fmt.Errorf("tag %s: %w", tag.EPC, err)
	}
	_, power := spectrum.FindPeak2DEval(ev, l.cfg.Search)
	return Diagnosis{
		EPC:       tag.EPC,
		Snapshots: len(selected),
		PeakPower: power,
		Coherent:  power >= CoherenceThreshold,
	}, nil
}
