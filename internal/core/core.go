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
	"bytes"
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
	return (&Locator{cfg: cfg}).WithEstimator(cfg.Estimator)
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

// estimate runs one tag's spectrum peak search: FindPeak3DEval when threeD,
// FindPeak2DEval otherwise. When against is non-nil and the tag has an
// orientation calibration, the fitted offset is removed against that
// reader-position estimate first; a 2D locate corrects against the position
// at the tag disk's own height. The returned EstimatorTag carries the
// (possibly corrected) input snapshots so a model-based solve backend can
// rebuild its likelihood from exactly what the peak saw.
func (l *Locator) estimate(tag SpinningTag, selected []phase.Snapshot, kind spectrum.Kind, threeD bool, against *geom.Vec3) (EstimatorTag, error) {
	params := spectrum.Params{Disk: tag.Disk, Sigma: l.cfg.Sigma, LiteralReference: l.cfg.LiteralReference}
	input := selected
	if against != nil && tag.Orientation != nil && !l.cfg.DisableOrientation {
		pos := *against
		if !threeD {
			pos.Z = tag.Disk.Center.Z
		}
		input = applyOrientation(tag, selected, pos)
	}
	ev, err := spectrum.NewEvaluator(input, params, kind)
	if err != nil {
		return EstimatorTag{}, fmt.Errorf("tag %s: %w", tag.EPC, err)
	}
	var pk spectrum.Peak3D
	if threeD {
		pk = spectrum.FindPeak3DEval(ev, l.cfg.Search)
	} else {
		pk.Azimuth, pk.Power = spectrum.FindPeak2DEval(ev, l.cfg.Search)
	}
	return estimatorTag(tag, input, len(selected), pk), nil
}

// estimatorTag pairs a tag's spectrum peak with the snapshots behind it and
// the count of selected reads that contributed.
func estimatorTag(tag SpinningTag, snaps []phase.Snapshot, n int, pk spectrum.Peak3D) EstimatorTag {
	est := TagEstimate{EPC: tag.EPC, Azimuth: pk.Azimuth, Polar: pk.Polar, Power: pk.Power, Snapshots: n}
	return EstimatorTag{Tag: tag, Snaps: snaps, Est: est}
}

// orderTags returns the registered tags that have observations, in a
// deterministic order (by EPC bytes, which is also the order of their
// lowercase hex strings).
func orderTags(registered []SpinningTag, obs Observations) []SpinningTag {
	var present []SpinningTag
	for _, t := range registered {
		if len(obs[t.EPC]) > 0 {
			present = append(present, t)
		}
	}
	sort.Slice(present, func(i, j int) bool {
		return bytes.Compare(present[i].EPC[:], present[j].EPC[:]) < 0
	})
	return present
}

// estimateAll runs fn — tag i's spectrum estimate — for every one of n
// present tags concurrently. The per-tag peak searches are independent and
// dominate a pass's cost. Each tag's search runs serially on its own
// goroutine: the synthesized coarse and refinement routes submit no jobs to
// the dense-scan scheduler (internal/sched), so this per-tag fan-out is the
// locate's only parallelism, bounded by GOMAXPROCS. Results land in
// tag-index slots and the first error *in tag order* is returned, so the
// output is deterministic regardless of goroutine scheduling.
func estimateAll(n int, fn func(i int) (EstimatorTag, error)) ([]EstimatorTag, error) {
	etags := make([]EstimatorTag, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			etags[i], errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return etags, nil
}

// solve fuses one pass's estimates through the configured estimator
// backend. A 2D solution is lifted to z = 0 with no mirror.
func (l *Locator) solve(etags []EstimatorTag, threeD bool) (Solution3D, error) {
	if threeD {
		return l.est.Solve3D(etags)
	}
	sol, err := l.est.Solve2D(etags)
	return Solution3D{Position: geom.V3(sol.Position.X, sol.Position.Y, 0), Confidence: sol.Confidence}, err
}

// run is the one locate pipeline, behind the batch Locate*Context and the
// streaming Finalize* of both dimensions: selection, a bootstrap pass, then
// — when orientation calibrations apply — up to three correction passes,
// each against the previous pass's position (in 3D, the selected candidate:
// ρ is, to first order, insensitive to the sign of z). A better position
// gives more accurate per-snapshot orientations; 1 cm of movement changes ρ
// by well under a degree at operating distances, so the loop stops at the
// first pass that moves the position less than that. first, when non-nil,
// supplies a tag's bootstrap peak (a Stream's accumulators); ok false sends
// the tag to the batch estimate. The context is checked before every pass.
func (l *Locator) run(ctx context.Context, registered []SpinningTag, obs Observations, threeD bool,
	first func(tag SpinningTag, selected []phase.Snapshot, kind spectrum.Kind) (pk spectrum.Peak3D, ok bool),
) ([]EstimatorTag, Solution3D, error) {
	present, selected, err := l.selectAll(registered, obs)
	if err != nil {
		return nil, Solution3D{}, err
	}
	kind := l.bootstrapKind(present)
	var against *geom.Vec3 // nil on the bootstrap pass
	pass := func() ([]EstimatorTag, Solution3D, error) {
		if err := ctxErr(ctx); err != nil {
			return nil, Solution3D{}, err
		}
		etags, err := estimateAll(len(present), func(i int) (EstimatorTag, error) {
			tag, sel := present[i], selected[i]
			if against == nil && first != nil {
				if pk, ok := first(tag, sel, kind); ok {
					return estimatorTag(tag, sel, len(sel), pk), nil
				}
			}
			return l.estimate(tag, sel, kind, threeD, against)
		})
		if err != nil {
			return nil, Solution3D{}, err
		}
		sol, err := l.solve(etags, threeD)
		return etags, sol, err
	}
	etags, sol, err := pass()
	if err != nil || !l.wantsOrientation(present) {
		return etags, sol, err
	}
	kind = l.cfg.kind()
	for range 3 {
		coarse := sol.Position
		against = &coarse
		if etags, sol, err = pass(); err != nil {
			return nil, Solution3D{}, err
		}
		moved := sol.Position.DistanceTo(coarse)
		if !threeD {
			// math.Hypot in the plane: a z = 0 Sqrt(Dot) can differ in the
			// last bit, and so move a 2D locate's pass count.
			moved = sol.Position.XY().DistanceTo(coarse.XY())
		}
		if moved < 0.01 {
			break
		}
	}
	return etags, sol, nil
}

// Locate2D estimates the reader position in the plane from the observations
// of two or more registered spinning tags. When orientation calibrations are
// available, an uncorrected solve provides the coarse position the
// per-snapshot orientations are computed against, then up to three
// correction passes solve the corrected snapshots again, each against the
// previous position (§III-B's Step 2 needs a direction, which only exists
// after a first estimate; run has the loop).
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
	etags, sol, err := l.run(ctx, registered, obs, false, nil)
	if err != nil {
		return Result2D{}, err
	}
	return l.result2D(etags, sol), nil
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

// result2D shapes run's output as a 2D result.
func (l *Locator) result2D(etags []EstimatorTag, sol Solution3D) Result2D {
	return Result2D{
		Position:   sol.Position.XY(),
		Bearings:   tagEstimates(etags),
		Backend:    l.est.Name(),
		Confidence: sol.Confidence,
	}
}

// result3D shapes run's output as a 3D result. Mirror selection itself
// belongs to the estimator backend.
func (l *Locator) result3D(etags []EstimatorTag, sol Solution3D) Result3D {
	return Result3D{
		Position:   sol.Position,
		Mirror:     sol.Mirror,
		ZSpread:    sol.ZSpread,
		Bearings:   tagEstimates(etags),
		Backend:    l.est.Name(),
		Confidence: sol.Confidence,
	}
}

// selectAll validates and channel-filters every present tag's snapshots;
// selected[i] is present[i]'s selection.
func (l *Locator) selectAll(registered []SpinningTag, obs Observations) ([]SpinningTag, [][]phase.Snapshot, error) {
	present := orderTags(registered, obs)
	if len(present) < 2 {
		return nil, nil, ErrTooFewTags
	}
	selected := make([][]phase.Snapshot, len(present))
	for i, tag := range present {
		snaps, err := l.selectSnapshots(obs[tag.EPC])
		if err != nil {
			return nil, nil, fmt.Errorf("tag %s: %w", tag.EPC, err)
		}
		selected[i] = snaps
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

// Locate3D estimates the reader position in space from the observations of
// two or more registered spinning tags, with the same orientation passes
// as Locate2D.
func (l *Locator) Locate3D(registered []SpinningTag, obs Observations) (Result3D, error) {
	return l.Locate3DContext(context.Background(), registered, obs)
}

// Locate3DContext is Locate3D with cancellation, checked between spectrum
// passes exactly as in Locate2DContext.
func (l *Locator) Locate3DContext(ctx context.Context, registered []SpinningTag, obs Observations) (Result3D, error) {
	etags, sol, err := l.run(ctx, registered, obs, true, nil)
	if err != nil {
		return Result3D{}, err
	}
	return l.result3D(etags, sol), nil
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
