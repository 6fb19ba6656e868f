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
// in a caller-owned Scratch (grid scans draw theirs from an internal
// free list, so steady-state scans allocate nothing either).
//
// Every per-candidate value uses math.Sincos and is bit-identical to a
// naive serial evaluation — equivalence tests pin this. The synthesis
// routes (harmonic.go, allcells.go) approximate these values
// within documented slacks and exact-rescore any cell that could win, so
// their answers carry the same bits.
//
// An Evaluator is immutable after construction (the pools are internally
// synchronized) and safe for concurrent use. All mutable per-evaluation
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

	scratches scratchList // reused across grid scans and peak searches
	bestsPool sync.Pool   // *[]maxEntry, reused across argmax reductions
	jobPool   sync.Pool   // *scanJob, reused across grid scans
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
func newEvaluatorFromTerms(terms []snapshotTerm, p Params, kind Kind) *Evaluator {
	ts := makeTermSlices(terms)
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
	sumRe  []float64 // per-candidate phasor accumulators (interchanged Q)
	sumIm  []float64
	row    []float64 // per-candidate values during argmax scans
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
		sc.row = make([]float64, n)
	}
	sc.sinPhi = sc.sinPhi[:n]
	sc.cosPhi = sc.cosPhi[:n]
	sc.sumRe = sc.sumRe[:n]
	sc.sumIm = sc.sumIm[:n]
	sc.row = sc.row[:n]
}

// scratchList is an Evaluator's Scratch free list. It is a mutex-guarded
// stack rather than a sync.Pool: a pool parks items per P and drops them at
// GC, so whether a pool worker finds a warm Scratch would depend on
// scheduling. The list never drops a Scratch and keeps every free one as
// wide as the widest row any Scratch has served, so once a scan shape has
// run, its chunks draw warm scratches whichever goroutine runs them.
type scratchList struct {
	mu    sync.Mutex
	free  []*Scratch
	made  int // scratches created so far
	width int // widest row served; every free Scratch holds rows this wide
}

// getScratch draws a Scratch from the free list (allocating only when every
// Scratch made so far is in use); putScratch returns it. Grid scans and
// peak searches route all their transient state through this pair, which
// is what makes whole Profile2D/FindPeak calls allocation-free in steady
// state.
func (e *Evaluator) getScratch() *Scratch {
	l := &e.scratches
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		sc := l.free[n-1]
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return sc
	}
	l.made++
	width := l.width
	l.mu.Unlock()
	sc := e.NewScratch()
	sc.ensureRow(width)
	return sc
}

func (e *Evaluator) putScratch(sc *Scratch) {
	l := &e.scratches
	l.mu.Lock()
	if w := cap(sc.row); w > l.width {
		l.width = w
		for _, f := range l.free {
			f.ensureRow(w)
		}
	} else {
		sc.ensureRow(l.width)
	}
	l.free = append(l.free, sc)
	l.mu.Unlock()
}

// reserveScratch makes sure at least n scratches exist, so a scan fanned
// out over n goroutines never creates one mid-scan.
func (e *Evaluator) reserveScratch(n int) {
	l := &e.scratches
	l.mu.Lock()
	for ; l.made < n; l.made++ {
		sc := e.NewScratch()
		sc.ensureRow(l.width)
		l.free = append(l.free, sc)
	}
	l.mu.Unlock()
}

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

// scanJob describes one grid scan as plain data — which snapshot terms,
// which candidate geometry, and where results go. Scans dispatch through a
// pooled *scanJob and the runChunk method instead of closures: a closure
// passed into the parallel machinery escapes to the worker goroutines and
// would cost the caller a heap allocation per scan, which is exactly what
// the zero-alloc steady-state contract forbids.
//
// Candidate geometry, in precedence order:
//   - rows != nil: 3D profile — chunks index polar rows; row i evaluates
//     angles at γ = polars[i] into rows[i].
//   - angles != nil: 1D profile — chunks index candidates; candidate i
//     evaluates angles[i] at fixed gamma into out[i].
//   - azCount > 0: 3D coarse argmax — chunks are exactly one polar row of
//     azCount uniform candidates (φ_k = k·step, γ = polBase +
//     (i/azCount)·polStep); winners land in bests.
//   - otherwise: 1D uniform argmax — candidate i is φ_i = i·step at fixed
//     gamma; winners land in bests.
type scanJob struct {
	ev    *Evaluator // back-reference so RunChunk can reach the kernels
	terms termSlices
	n     int // candidate (or row) count
	chunk int // chunk size handed to one worker grab

	// Output: profile scans write out/rows; argmax scans reduce into bests.
	out   []float64
	rows  [][]float64
	bests []maxEntry

	// Candidate geometry.
	angles           []float64
	polars           []float64
	step             float64
	azCount          int
	polBase, polStep float64
	gamma            float64
}

// reset clears slice references so a pooled job cannot retain caller
// memory across uses.
func (j *scanJob) reset() {
	*j = scanJob{}
}

// getJob draws a scan descriptor from the pool; putJob resets and returns
// it.
func (e *Evaluator) getJob() *scanJob {
	j, ok := e.jobPool.Get().(*scanJob)
	if !ok {
		j = new(scanJob)
	}
	j.ev = e
	return j
}

func (e *Evaluator) putJob(j *scanJob) {
	j.reset()
	e.jobPool.Put(j)
}

// runChunk evaluates one contiguous chunk [lo, hi) of a scan job on the
// given Scratch, per the job's candidate geometry.
func (e *Evaluator) runChunk(j *scanJob, sc *Scratch, lo, hi int) {
	switch {
	case j.rows != nil:
		for i := lo; i < hi; i++ {
			fillAngleTrig(sc, j.angles)
			e.evalRow(j.terms, sc, j.polars[i], len(j.angles), j.rows[i])
		}
	case j.angles != nil:
		fillAngleTrig(sc, j.angles[lo:hi])
		e.evalRow(j.terms, sc, j.gamma, hi-lo, j.out[lo:hi])
	case j.azCount > 0:
		gamma := j.polBase + float64(lo/j.azCount)*j.polStep
		e.fillUniformTrig(sc, 0, hi-lo, j.step)
		e.evalRow(j.terms, sc, gamma, hi-lo, sc.row[:hi-lo])
		j.reduceChunk(sc, lo, hi)
	default:
		e.fillUniformTrig(sc, lo, hi-lo, j.step)
		e.evalRow(j.terms, sc, j.gamma, hi-lo, sc.row[:hi-lo])
		j.reduceChunk(sc, lo, hi)
	}
}

// reduceChunk records the chunk's argmax winner. Strict > keeps the
// serial lowest-index tie rule.
func (j *scanJob) reduceChunk(sc *Scratch, lo, hi int) {
	best := maxEntry{idx: -1, val: math.Inf(-1)}
	for k, v := range sc.row[:hi-lo] {
		if v > best.val {
			best = maxEntry{idx: lo + k, val: v}
		}
	}
	j.bests[lo/j.chunk] = best
}

// RunChunk implements sched.Chunked: execute one chunk of the scan on a
// pooled Scratch. It runs on scheduler helpers and the submitting goroutine
// alike; the scratch list is internally synchronized and every chunk writes
// a disjoint slice of the job's output, so no further locking is needed.
func (j *scanJob) RunChunk(lo, hi int) {
	e := j.ev
	sc := e.getScratch()
	e.runChunk(j, sc, lo, hi)
	e.putScratch(sc)
}

// scanChunks runs a job's chunks of [0, n) through sched.Run, which fans
// them out over up to sched.Workers() goroutines and runs every chunk on the
// caller at width 1.
//
// Every index is processed exactly once, output writes never race, and
// evaluation order never enters the arithmetic, so results are bit-identical
// to a serial loop regardless of scheduling. Chunk boundaries are part of
// the contract: each runChunk call covers exactly one chunk (the 3D coarse
// scan relies on a chunk being exactly one polar row).
func (e *Evaluator) scanChunks(j *scanJob) {
	if j.chunk <= 0 {
		j.chunk = chunkTarget
	}
	e.reserveScratch(min(sched.Workers(), (j.n+j.chunk-1)/j.chunk))
	sched.Run(j, j.n, j.chunk)
}

// maxEntry records one chunk's best candidate during a parallel argmax.
type maxEntry struct {
	idx int
	val float64
}

// getBests draws a chunk-winner slice of length n from the pool; putBests
// returns it. Pooling here removes the per-call allocate-and-zero that
// peak searches used to pay (BENCH_1 recorded 13 allocs/op on FindPeak2DR).
func (e *Evaluator) getBests(n int) *[]maxEntry {
	p, ok := e.bestsPool.Get().(*[]maxEntry)
	if !ok {
		p = new([]maxEntry)
	}
	if cap(*p) < n {
		*p = make([]maxEntry, n)
	}
	*p = (*p)[:n]
	for i := range *p {
		(*p)[i] = maxEntry{idx: -1, val: math.Inf(-1)}
	}
	return p
}

func (e *Evaluator) putBests(p *[]maxEntry) { e.bestsPool.Put(p) }

// argmaxJob runs an argmax-shaped scan job and returns the index and value
// of the maximum candidate. Per-chunk winners are reduced in chunk order
// with a strict > comparison, so ties resolve to the lowest index exactly
// like a serial left-to-right scan.
func (e *Evaluator) argmaxJob(j *scanJob) (int, float64) {
	if j.n <= 0 {
		return 0, math.Inf(-1)
	}
	if j.chunk <= 0 {
		j.chunk = chunkTarget
	}
	nChunks := (j.n + j.chunk - 1) / j.chunk
	bestsPtr := e.getBests(nChunks)
	j.bests = *bestsPtr
	e.scanChunks(j)
	best := maxEntry{idx: 0, val: math.Inf(-1)}
	for _, b := range j.bests {
		if b.idx >= 0 && b.val > best.val {
			best = b
		}
	}
	e.putBests(bestsPtr)
	return best.idx, best.val
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
	if cap(prof.Power) >= len(angles) {
		prof.Power = prof.Power[:len(angles)]
	} else {
		prof.Power = make([]float64, len(angles))
	}
	j := e.getJob()
	j.terms = e.terms
	j.n = len(prof.Angles)
	j.chunk = chunkTarget
	j.angles = prof.Angles
	j.out = prof.Power
	e.scanChunks(j)
	e.putJob(j)
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
// array, so parallel row writers share nothing but still fill contiguous
// memory.
func newProfile3D(azimuths, polars []float64) Profile3D {
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
	return prof
}

// rowChunk sizes a row-granular chunk so each grabbed chunk holds at least
// chunkTarget evaluations even for narrow azimuth grids.
func rowChunk(cols int) int {
	if cols >= chunkTarget || cols <= 0 {
		return 1
	}
	return (chunkTarget + cols - 1) / cols
}

// Profile3D evaluates the 3D profile over the az × polar grid, parallelized
// across whole grid rows to keep each worker's writes cache-local; each row
// goes through the batched row kernel. The result is bit-identical to
// Profile3DSerial.
func (e *Evaluator) Profile3D(azimuths, polars []float64) Profile3D {
	prof := newProfile3D(azimuths, polars)
	j := e.getJob()
	j.terms = e.terms
	j.n = len(prof.Polars)
	j.chunk = rowChunk(len(prof.Azimuths))
	j.angles = prof.Azimuths
	j.polars = prof.Polars
	j.rows = prof.Power
	e.scanChunks(j)
	e.putJob(j)
	return prof
}

// Profile3DSerial is the single-threaded reference implementation of
// Profile3D, kept for equivalence tests and speedup baselines.
func (e *Evaluator) Profile3DSerial(azimuths, polars []float64) Profile3D {
	prof := newProfile3D(azimuths, polars)
	sc := e.NewScratch()
	for i, gamma := range prof.Polars {
		row := prof.Power[i]
		for j, phi := range prof.Azimuths {
			row[j] = e.EvalAt(sc, phi, gamma)
		}
	}
	return prof
}
