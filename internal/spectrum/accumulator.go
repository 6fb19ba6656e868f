package spectrum

import (
	"fmt"

	"github.com/tagspin/tagspin/internal/phase"
)

// Accumulator buffers one spin session's snapshots as prepared terms while
// they arrive, and finalizes through the batch peak search. Add does the
// per-snapshot work the batch path would do after the session — the
// termSlices.add conversion and its validation — so a bad snapshot is
// rejected the moment it arrives; FindPeak2D/FindPeak3D then run
// FindPeak2DEval or FindPeak3DEval on an Evaluator over the buffered terms,
// built exactly as NewEvaluator builds one. A streamed answer is therefore the batch answer
// by construction, at every session length.
//
// The accumulator deliberately folds nothing per cell. The batch coarse
// pass scores a strided subset of at most coarseTermLimit terms whose
// stride depends on the final count, so no per-cell running sum can
// reproduce it past that length, and every real session is longer (DESIGN
// §9).
//
// An Accumulator is NOT safe for concurrent use: Add and the finalize calls
// must run on one goroutine at a time (core.Stream gives it a single
// ingestion worker).
type Accumulator struct {
	params Params
	kind   Kind
	opts   SearchOptions
	threeD bool

	terms   termSlices
	ref     phase.Snapshot
	haveRef bool
	ev      *Evaluator // lazily built at finalize, invalidated by Add
}

// NewAccumulator2D builds a streaming accumulator whose finalize runs the
// batch 2D peak search for the same SearchOptions.
func NewAccumulator2D(p Params, kind Kind, opts SearchOptions) (*Accumulator, error) {
	return newAccumulator(p, kind, opts, false)
}

// NewAccumulator3D is NewAccumulator2D for the batch 3D peak search.
func NewAccumulator3D(p Params, kind Kind, opts SearchOptions) (*Accumulator, error) {
	return newAccumulator(p, kind, opts, true)
}

func newAccumulator(p Params, kind Kind, opts SearchOptions, threeD bool) (*Accumulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Accumulator{
		params: p,
		kind:   kind,
		opts:   opts,
		threeD: threeD,
	}, nil
}

// Snapshots returns how many snapshots have been added.
func (a *Accumulator) Snapshots() int { return a.terms.n() }

// Add converts one snapshot into its prepared term. The first snapshot
// becomes the session's phase reference, exactly like prepare. Snapshots
// must arrive in the order the batch path would sort them (ascending time)
// for the finalize to equal the batch search — the caller owns that
// guarantee (core.Stream checks it and falls back to batch otherwise).
func (a *Accumulator) Add(s phase.Snapshot) error {
	if !a.haveRef {
		a.ref = s
		a.haveRef = true
	}
	if err := a.terms.add(s, a.ref, a.params.Disk.Angle(s.Time), a.params.Disk.Radius); err != nil {
		return fmt.Errorf("spectrum: snapshot %d %w", a.terms.n(), err)
	}
	a.ev = nil
	return nil
}

// Evaluator returns the batch engine over the accumulated snapshots. It is
// (re)built lazily after the last Add, over the terms clipped to their
// count, so a later Add never reaches a returned Evaluator.
func (a *Accumulator) Evaluator() (*Evaluator, error) {
	if a.terms.n() < 2 {
		return nil, fmt.Errorf("spectrum: need ≥2 snapshots, have %d", a.terms.n())
	}
	if a.ev == nil {
		a.ev = newEvaluatorFromTerms(a.terms.clip(), a.params, a.kind)
	}
	return a.ev, nil
}

// FindPeak2D finalizes the accumulated session into the refined 2D peak:
// FindPeak2DEval on Evaluator().
func (a *Accumulator) FindPeak2D() (float64, float64, error) {
	if a.threeD {
		return 0, 0, fmt.Errorf("spectrum: 3D accumulator cannot run a 2D peak search")
	}
	ev, err := a.Evaluator()
	if err != nil {
		return 0, 0, err
	}
	az, pow := FindPeak2DEval(ev, a.opts)
	return az, pow, nil
}

// FindPeak3D is FindPeak2D for the 3D search: FindPeak3DEval on
// Evaluator().
func (a *Accumulator) FindPeak3D() (Peak3D, error) {
	if !a.threeD {
		return Peak3D{}, fmt.Errorf("spectrum: 2D accumulator cannot run a 3D peak search")
	}
	ev, err := a.Evaluator()
	if err != nil {
		return Peak3D{}, err
	}
	return FindPeak3DEval(ev, a.opts), nil
}
