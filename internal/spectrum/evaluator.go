package spectrum

import (
	"math"
	"sync"

	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/sched"
)

// coarseTermLimit is the snapshot-subset size global coarse scans use: a
// strided subset of at most this many snapshots is plenty to find the right
// grid cell, and the refinement rounds use the full set.
const coarseTermLimit = 64

// chunkTarget is the number of candidate evaluations a worker grabs at a
// time during a parallel grid scan. It keeps the coordination cost (one
// atomic add per chunk) negligible while giving each worker contiguous,
// cache-local runs of the output slice.
const chunkTarget = 64

// Evaluator is the reusable spectrum evaluation engine behind Compute2D/3D
// and the peak searches (§IV / §V-B, Eqn. 7/11, Definitions 4.1/5.1). It is
// constructed once per collection session from the prepared snapshot terms
// and holds the per-snapshot trig tables — sin/cos of the disk angles and
// the aperture scales 4πr/λ — so that each candidate direction costs a
// handful of multiply-adds per snapshot instead of a cosine, and no heap
// allocation at all: the residual/aperture buffers the R profile needs live
// in a caller-owned Scratch (grid scans and peak searches draw theirs from
// a process-wide free list, so steady-state scans allocate nothing either).
//
// Every per-candidate value uses math.Sincos and is bit-identical to a
// naive serial evaluation — equivalence tests pin this. The synthesis
// routes (harmonic.go, allcells.go) approximate these values
// within documented slacks and exact-rescore any cell that could win, so
// their answers carry the same bits.
//
// An Evaluator holds only its terms and constants, is immutable after
// construction and is safe for concurrent use. All mutable per-evaluation
// state lives in a Scratch, which must be owned by exactly one goroutine at
// a time.
type Evaluator struct {
	terms       termSlices
	coarse      termSlices // strided subset (≤coarseTermLimit) for coarse scans
	kind        Kind
	literalRef  bool
	weightSigma float64 // Gaussian kernel width for the R weights

	// Hoisted Gaussian-kernel constants for the R synthesis weighting pass:
	// GaussPDF's per-call 1/(σ√2π) and 1/(2σ²) pulled out of the inner
	// loop. The per-candidate path keeps calling mathx.GaussPDF so its
	// results stay bit-identical to the pre-kernel engine.
	wNorm    float64
	wInv2Sig float64
}

// NewEvaluator prepares the snapshot terms and trig tables for repeated
// evaluation of the selected profile kind.
func NewEvaluator(snaps []phase.Snapshot, p Params, kind Kind) (*Evaluator, error) {
	terms, err := prepare(nil, snaps, p)
	if err != nil {
		return nil, err
	}
	return newEvaluatorFromTerms(terms, p, kind), nil
}

// weightSigma returns the Gaussian kernel width the R weights use.
func (p Params) weightSigma() float64 {
	if p.LiteralReference {
		// Definition 4.1 verbatim: residuals are N(0, 2σ²) because they
		// carry both ε_i and the reference's ε₁.
		return p.sigma() * math.Sqrt2
	}
	// Robust variant: the kernel covers the structured residuals real
	// sessions carry beyond thermal noise (see evalQR).
	return math.Hypot(p.sigma(), modelResidualSigma)
}

// newEvaluatorFromTerms builds an Evaluator over already-prepared terms. The
// streaming Accumulator finalizes through this path, so batch and streaming
// searches run on the very same engine.
func newEvaluatorFromTerms(ts termSlices, p Params, kind Kind) *Evaluator {
	e := &Evaluator{
		terms:       ts,
		coarse:      ts.stride(coarseTermLimit),
		kind:        kind,
		literalRef:  p.LiteralReference,
		weightSigma: p.weightSigma(),
	}
	e.wNorm = 1 / (e.weightSigma * math.Sqrt(mathx.TwoPi))
	e.wInv2Sig = 1 / (2 * e.weightSigma * e.weightSigma)
	return e
}

// Scratch holds the per-evaluation buffers EvalAt and the row kernels write
// into, so the hot paths never allocate. Create one per worker goroutine
// with NewScratch; a Scratch must not be shared between concurrently
// running evaluations.
type Scratch struct {
	residuals []float64 // per-snapshot R residuals
	apertures []float64 // per-snapshot aperture terms

	// Row-kernel buffers, sized to the widest row seen so far.
	sinPhi []float64 // per-candidate sin φ table
	cosPhi []float64 // per-candidate cos φ table
	sumRe  []float64 // per-candidate synthesized phasor sums Ŝ (synthRowR)
	sumIm  []float64
}

// NewScratch returns a Scratch sized for this Evaluator's snapshot set.
func (e *Evaluator) NewScratch() *Scratch {
	return &Scratch{
		residuals: make([]float64, e.terms.n()),
		apertures: make([]float64, e.terms.n()),
	}
}

// ensureRow grows the row-kernel buffers to hold n candidates.
func (sc *Scratch) ensureRow(n int) {
	if cap(sc.sinPhi) < n {
		sc.sinPhi = make([]float64, n)
		sc.cosPhi = make([]float64, n)
		sc.sumRe = make([]float64, n)
		sc.sumIm = make([]float64, n)
	}
	sc.sinPhi = sc.sinPhi[:n]
	sc.cosPhi = sc.cosPhi[:n]
	sc.sumRe = sc.sumRe[:n]
	sc.sumIm = sc.sumIm[:n]
}

// freeList is a process-wide mutex-guarded stack of reusable values. It is
// a stack rather than a sync.Pool: a pool parks items per P and drops them
// at GC, so whether a scheduler helper found a warm item would depend on
// scheduling. The list never drops an item, so it holds as many as were
// ever in use at once, and once a scan shape has run, its chunks draw warm
// values whichever goroutine runs them.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free = l.free[:n-1]
	return x
}

func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}

var (
	scratches freeList[Scratch] // every Evaluator's grid scans and peak searches
	scanJobs  freeList[scanJob] // dense scan descriptors
)

// getScratch draws a Scratch from the process-wide free list, its per-term
// buffers grown to hold e's terms; putScratch returns it. Grid scans and
// peak searches route all their transient state through this pair, which
// is what makes a whole Profile2DInto or FindPeak call — on a fresh
// Evaluator too — allocation-free in steady state.
func (e *Evaluator) getScratch() *Scratch {
	sc := scratches.get()
	if n := e.terms.n(); len(sc.residuals) < n {
		sc.residuals = make([]float64, n)
		sc.apertures = make([]float64, n)
	}
	return sc
}

func putScratch(sc *Scratch) { scratches.put(sc) }

// EvalAt computes the configured power formula at candidate direction
// (phi, gamma) over the full snapshot set; gamma = 0 reduces Eqn. 11/12 to
// Eqn. 7/8. sc must come from NewScratch on this Evaluator. Per candidate
// it spends two trig calls on (sin φ, cos φ) and one on cos γ; the
// per-snapshot factor cos(a_i−φ) then falls out of the tables as
// cos a_i·cos φ + sin a_i·sin φ. The row kernels in kernel.go amortize the
// candidate trig across uniform grids; this single-candidate form remains
// for refinement loops and callers off the grid.
func (e *Evaluator) EvalAt(sc *Scratch, phi, gamma float64) float64 {
	sinPhi, cosPhi := math.Sincos(phi)
	return e.evalCell(e.terms, sc, sinPhi, cosPhi, math.Cos(gamma))
}

// evalCell is EvalAt on a term subset from the candidate's trig and cos γ:
// given the bits math.Sincos(φ) and math.Cos(γ) produce, it returns
// EvalAt's bits on the same terms.
func (e *Evaluator) evalCell(terms termSlices, sc *Scratch, sinPhi, cosPhi, cg float64) float64 {
	if e.kind != KindR {
		return evalQExact(terms, sinPhi, cosPhi, cg)
	}
	return e.evalRExact(terms, sc, sinPhi, cosPhi, cg)
}

// evalQExact is the exact-trig Q profile for one candidate; its arithmetic
// (expression shapes and accumulation order) is the bit-exactness reference
// every other Q path must reproduce.
func evalQExact(terms termSlices, sinPhi, cosPhi, cg float64) float64 {
	var sumRe, sumIm float64
	relPhase, cosA, sinA, scale := terms.relPhase, terms.cosA, terms.sinA, terms.scale
	for i := range scale {
		aperture := scale[i] * (cosA[i]*cosPhi + sinA[i]*sinPhi) * cg
		s, c := math.Sincos(relPhase[i] + aperture)
		sumRe += c
		sumIm += s
	}
	return math.Hypot(sumRe, sumIm) / float64(len(scale))
}

// evalRExact is the exact-trig R profile for one candidate: residual of
// each snapshot's relative phase against the candidate direction's
// prediction, Gaussian-weighted phasor stack (Definition 4.1 / 5.1).
func (e *Evaluator) evalRExact(terms termSlices, sc *Scratch, sinPhi, cosPhi, cg float64) float64 {
	// c_i(φ,γ) = scale·(cos(a_1−φ) − cos(a_i−φ))·cos γ with the reference
	// term folded in per snapshot below.
	// Reslicing every stream to the common length n lets the compiler
	// retire the bounds checks in both passes (make vet-strict spot-checks
	// the kernels); the arithmetic below is untouched, so the exact path
	// keeps producing the reference bits.
	scale := terms.scale
	n := len(scale)
	relPhase := terms.relPhase[:n]
	cosA := terms.cosA[:n]
	sinA := terms.sinA[:n]
	refAperture := scale[0] * (cosA[0]*cosPhi + sinA[0]*sinPhi) * cg
	residuals := sc.residuals[:n]
	apertures := sc.apertures[:n]
	var rs, rc float64
	for i := 0; i < n; i++ {
		aperture := scale[i] * (cosA[i]*cosPhi + sinA[i]*sinPhi) * cg
		apertures[i] = aperture
		ci := refAperture - aperture // ϑ_i − ϑ_1 under candidate (φ,γ)
		res := mathx.WrapToPi(relPhase[i] - ci)
		residuals[i] = res
		s, c := math.Sincos(res)
		rs += s
		rc += c
	}
	var mu float64
	if !e.literalRef {
		// Cancel the shared ε₁ (and any common model offset) via the
		// circular mean of the residuals; the widened kernel in weightSigma
		// covers the structured residuals — far-field approximation error,
		// orientation-calibration residue, mild multipath — that a kernel at
		// exactly the thermal σ would over-trust (ablation A1 sweeps this).
		mu = math.Atan2(rs, rc)
	}
	var sumRe, sumIm float64
	for i, res := range residuals {
		w := mathx.GaussPDF(mathx.WrapToPi(res-mu), 0, e.weightSigma)
		s, c := math.Sincos(relPhase[i] + apertures[i])
		sumRe += w * c
		sumIm += w * s
	}
	// The paper normalizes by 1/n (Eqn. 7, Definition 4.1): the Q profile
	// then peaks at 1 for a perfectly coherent stack, while the R profile
	// peaks near the Gaussian kernel's mode. Normalizing by Σw instead
	// would let a single accidentally-agreeing snapshot dominate at wrong
	// angles.
	return math.Hypot(sumRe, sumIm) / float64(n)
}

// scanJob is one dense grid scan as plain data: the exact profile of every
// cell of an azimuth axis (its trig in sinPhi/cosPhi) × a list of polar
// rows, written row-major into out, so cell k is row k/len(sinPhi),
// azimuth k%len(sinPhi). 2D is the one-row γ = 0 case. Scans dispatch
// through a *scanJob from a free list and its RunChunk method instead of
// closures: a closure passed into the scheduler escapes to the helper
// goroutines and would cost the caller a heap allocation per scan, which
// the zero-alloc steady-state contract forbids.
type scanJob struct {
	ev             *Evaluator // back-reference so RunChunk can reach the kernels
	terms          termSlices
	sinPhi, cosPhi []float64 // azimuth-axis trig
	polars         []float64
	out            []float64

	// Buffers the job owns, kept across scans: an angle list's trig, a
	// uniform grid's polar rows, and a dense argmax's cell values.
	trig, polarBuf, vals []float64
}

// flatRow is the polar row list of a 2D scan.
var flatRow = []float64{0}

// newScan draws a scan descriptor over terms from the free list; release
// returns it.
func (e *Evaluator) newScan(terms termSlices) *scanJob {
	j := scanJobs.get()
	j.ev, j.terms = e, terms
	return j
}

// release drops the job's references to caller memory, keeping its own
// buffers, and returns it to the free list.
func (j *scanJob) release() {
	*j = scanJob{trig: j.trig, polarBuf: j.polarBuf, vals: j.vals}
	scanJobs.put(j)
}

// scanAngles scores the grid of an arbitrary azimuth list × polars over
// e's full term set into out. The azimuth trig is computed once per scan
// with math.Sincos, so every cell stays bit-identical to EvalAt; an angle
// list has no uniform-step plan key, so the build counts as a plan-cache
// bypass.
func (e *Evaluator) scanAngles(azimuths, polars, out []float64) {
	j := e.newScan(e.terms)
	n := len(azimuths)
	if n >= planMinN {
		planCache.nonUniformMiss.Add(1)
	}
	j.trig = resize(j.trig, 2*n)
	j.sinPhi, j.cosPhi = j.trig[:n:n], j.trig[n:]
	for k, a := range azimuths {
		j.sinPhi[k], j.cosPhi[k] = math.Sincos(a)
	}
	j.polars = polars
	j.run(out)
	j.release()
}

// run scores every cell into out through sched.Run, chunkTarget cells per
// chunk.
func (j *scanJob) run(out []float64) {
	j.out = out
	sched.Run(j, len(out), chunkTarget)
}

// RunChunk implements sched.Chunked: it scores cells [lo, hi) on a Scratch
// from the free list, one evalRow call per polar row the chunk touches. It
// runs on scheduler helpers and the submitting goroutine alike; every chunk
// writes a disjoint slice of out, so no locking is needed.
//
// Every cell is scored exactly once, output writes never race, and
// evaluation order never enters the arithmetic, so results are
// bit-identical to a serial loop regardless of scheduling.
func (j *scanJob) RunChunk(lo, hi int) {
	e, nAz := j.ev, len(j.sinPhi)
	sc := e.getScratch()
	for lo < hi {
		r, a := lo/nAz, lo%nAz
		end := min(hi, lo-a+nAz)
		e.evalRow(j.terms, sc, j.sinPhi[a:a+end-lo], j.cosPhi[a:a+end-lo], j.polars[r], j.out[lo:end])
		lo = end
	}
	putScratch(sc)
}

// denseArgmax scores every cell of the uniform grid φ_a = a·azStep,
// a ∈ [0, nAz), × γ_r = polBase + r·polStep, r ∈ [0, nPol), and returns
// the row-major index and value of its maximum: one serial pass with a
// strict >, so a tie goes to the lowest index. It is the dense oracle of
// harmonicArgmax3D, which takes the same arguments; 2D is nPol = 1 with
// polBase = polStep = 0.
func (e *Evaluator) denseArgmax(terms termSlices, nAz, nPol int, azStep, polBase, polStep float64) (int, float64) {
	j := e.newScan(terms)
	j.sinPhi, j.cosPhi = planCache.table(planKey{n: nAz, step: azStep})
	j.polarBuf = resize(j.polarBuf, nPol)
	for r := range j.polarBuf {
		j.polarBuf[r] = polBase + float64(r)*polStep
	}
	j.polars = j.polarBuf
	j.vals = resize(j.vals, nAz*nPol)
	j.run(j.vals)
	best, bestV := 0, math.Inf(-1)
	for k, v := range j.vals {
		if v > bestV {
			best, bestV = k, v
		}
	}
	j.release()
	return best, bestV
}

// resize returns buf with length n, reallocating only when its capacity is
// short.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Profile2D evaluates the 2D profile over the angle grid, parallelized
// across the grid through the row kernel. The result is bit-identical to
// Profile2DSerial: each power value is written by exactly one worker into
// its own index, and evaluation order never enters the arithmetic.
func (e *Evaluator) Profile2D(angles []float64) Profile {
	var prof Profile
	e.Profile2DInto(&prof, angles)
	return prof
}

// Profile2DInto is Profile2D writing into a caller-owned Profile, reusing
// its backing slices when they are large enough. Together with the pooled
// Scratch underneath, a steady-state caller (e.g. a serving loop computing
// the same-size profile per request) allocates nothing.
func (e *Evaluator) Profile2DInto(prof *Profile, angles []float64) {
	prof.Angles = append(prof.Angles[:0], angles...)
	prof.Power = resize(prof.Power, len(angles))
	e.scanAngles(prof.Angles, flatRow, prof.Power)
}

// Profile2DSerial is the single-threaded reference implementation of
// Profile2D, kept for equivalence tests and speedup baselines.
func (e *Evaluator) Profile2DSerial(angles []float64) Profile {
	prof := Profile{
		Angles: append([]float64(nil), angles...),
		Power:  make([]float64, len(angles)),
	}
	sc := e.NewScratch()
	for i, phi := range prof.Angles {
		prof.Power[i] = e.EvalAt(sc, phi, 0)
	}
	return prof
}

// newProfile3D allocates a 3D profile with all rows carved from one backing
// array, which it also returns: the row-major cells a dense scan writes.
func newProfile3D(azimuths, polars []float64) (Profile3D, []float64) {
	prof := Profile3D{
		Azimuths: append([]float64(nil), azimuths...),
		Polars:   append([]float64(nil), polars...),
		Power:    make([][]float64, len(polars)),
	}
	nc := len(azimuths)
	backing := make([]float64, len(polars)*nc)
	rows := prof.Power
	for i := range rows {
		rows[i] = backing[i*nc : (i+1)*nc : (i+1)*nc]
	}
	return prof, backing
}

// Profile3D evaluates the 3D profile over the az × polar grid as one dense
// scan, its azimuth trig computed once. The result is bit-identical to
// Profile3DSerial.
func (e *Evaluator) Profile3D(azimuths, polars []float64) Profile3D {
	prof, cells := newProfile3D(azimuths, polars)
	e.scanAngles(prof.Azimuths, prof.Polars, cells)
	return prof
}

// Profile3DSerial is the single-threaded reference implementation of
// Profile3D, kept for equivalence tests and speedup baselines.
func (e *Evaluator) Profile3DSerial(azimuths, polars []float64) Profile3D {
	prof, _ := newProfile3D(azimuths, polars)
	sc := e.NewScratch()
	for i, gamma := range prof.Polars {
		row := prof.Power[i]
		for j, phi := range prof.Azimuths {
			row[j] = e.EvalAt(sc, phi, gamma)
		}
	}
	return prof
}
