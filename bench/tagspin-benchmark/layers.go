package main

import (
	"reflect"
	"sort"
	"time"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/sched"
	"github.com/tagspin/tagspin/internal/spectrum"
)

// routeFields are the spectrum.SearchStats argmax routes reported per
// locate; a field a later refactor removes reads as 0.
var routeFields = []string{"HarmonicQ2D", "HarmonicR2D", "Hier3D", "Dense2D", "Dense3D"}

// argmaxFields are every coarse-argmax route counter; their sum is the
// number of coarse scans, the base of spectrum.dense_share.
var argmaxFields = []string{
	"HarmonicQ2D", "HarmonicR2D", "Hier2D", "Hier3D", "Prescreen2D", "Prescreen3D",
	"Dense2D", "Dense3D", "NUFFT2D", "NUFFTR2D", "DenseNU2D",
}

// searchField reads one routing counter by name.
func searchField(st spectrum.SearchStats, name string) float64 {
	v := reflect.ValueOf(st).FieldByName(name)
	if !v.IsValid() {
		return 0
	}
	return float64(v.Uint())
}

// waterfall accumulates the traced requests' layer segments.
type waterfall struct {
	items, passes            int
	pass1, passN, result     []float64 // ms
	solveByBackend           map[string][]float64
	compute, solveTotal      float64 // ms, for solve.share
	collects, attempts       []float64
	handler, http, hop, skew []float64
	root, unaccounted        float64 // ms
}

// add folds one request's spans. A request missing a span its workload
// must produce counts wholly as unaccounted.
func (w *waterfall) add(req *request) {
	by := map[string][]span{}
	for _, sp := range req.spans {
		by[sp.name] = append(by[sp.name], sp)
	}
	one := func(name string) (span, bool) {
		if len(by[name]) != 1 {
			return span{}, false
		}
		return by[name][0], true
	}
	bySlot := func(name string) map[int][]span {
		out := map[int][]span{}
		for _, sp := range by[name] {
			out[sp.slot] = append(out[sp.slot], sp)
		}
		for _, list := range out {
			sort.Slice(list, func(i, j int) bool { return list[i].start.Before(list[j].start) })
		}
		return out
	}
	solves := bySlot("solve")
	collects := bySlot("collect")
	var segs []time.Duration
	var rootDur time.Duration
	complete := true
	// chain records a locate's passes — pass 1 from begin to the first
	// solve, then each solve and the gap before the next — and returns their
	// segments and the last solve's end.
	chain := func(begin time.Time, list []span) ([]time.Duration, time.Time) {
		w.passes += len(list)
		var out []time.Duration
		prev := begin
		for k, sp := range list {
			gap := sp.start.Sub(prev)
			if k == 0 {
				w.pass1 = append(w.pass1, ms(gap))
			} else {
				w.passN = append(w.passN, ms(gap))
			}
			out = append(out, gap, sp.dur())
			w.solveByBackend[sp.backend] = append(w.solveByBackend[sp.backend], ms(sp.dur()))
			w.solveTotal += ms(sp.dur())
			prev = sp.end
		}
		return out, prev
	}
	for _, list := range collects {
		for _, c := range list {
			w.collects = append(w.collects, ms(c.dur()))
			w.attempts = append(w.attempts, float64(c.attempts))
		}
	}
	if root, ok := one("locate"); ok { // in-process
		rootDur = root.dur()
		list := solves[root.slot]
		complete = len(list) > 0 && len(solves) == 1
		if complete {
			w.items++
			passes, last := chain(root.start, list)
			segs = append(passes, root.end.Sub(last))
			w.result = append(w.result, ms(root.end.Sub(last)))
			w.compute += ms(rootDur)
		}
	} else if root, ok := one("request"); ok {
		rootDur = root.dur()
		if co, ok := one("coord"); ok { // portal batch
			reps := by["replica"]
			complete = len(reps) > 0 && len(collects) == len(solves) && len(solves) > 0
			if complete {
				crit := reps[0]
				for _, r := range reps[1:] {
					if r.dur() > crit.dur() {
						crit = r
					}
				}
				hop := co.dur() - crit.dur()
				segs = append(segs, co.start.Sub(root.start), hop, crit.dur(), root.end.Sub(co.end))
				w.hop = append(w.hop, ms(hop))
				w.http = append(w.http, ms(co.start.Sub(root.start)+root.end.Sub(co.end)))
				perReplica := make([]float64, len(reps))
				lastSolve := make([]time.Time, len(reps))
				for slot, list := range solves {
					cs := collects[slot]
					if len(cs) != 1 {
						complete = false
						break
					}
					// Items overlap inside the replica span, so their passes
					// are layer metrics but not segments of the batch.
					_, last := chain(cs[0].end, list)
					w.items++
					w.compute += ms(last.Sub(cs[0].end))
					if r := cs[0].replica; r < len(reps) {
						perReplica[r]++
						lastSolve[r] = maxTime(lastSolve[r], last)
					}
				}
				for _, r := range reps {
					if r.replica < len(reps) && perReplica[r.replica] > 0 {
						w.handler = append(w.handler, ms(r.dur()))
						w.result = append(w.result, ms(r.end.Sub(lastSolve[r.replica])))
					}
				}
				w.skew = append(w.skew, maxOf(perReplica)/mean(perReplica))
			}
		} else { // single locate through one replica
			h, okH := one("handler")
			hp, okP := one("http")
			list := solves[root.slot]
			cs := collects[root.slot]
			complete = okH && okP && len(list) > 0 && len(cs) == 1
			if complete {
				c := cs[0]
				w.items++
				segs = append(segs, hp.start.Sub(root.start), h.start.Sub(hp.start), c.start.Sub(h.start), c.dur())
				passes, last := chain(c.end, list)
				segs = append(segs, passes...)
				segs = append(segs, h.end.Sub(last), root.end.Sub(h.end))
				w.result = append(w.result, ms(h.end.Sub(last)))
				w.handler = append(w.handler, ms(h.dur()))
				w.http = append(w.http, ms(h.start.Sub(hp.start)+root.end.Sub(h.end)))
				w.compute += ms(h.end.Sub(c.end))
			}
		}
	} else {
		complete = false
	}
	w.root += ms(rootDur)
	if !complete {
		w.unaccounted += ms(rootDur)
		return
	}
	var sum time.Duration
	for _, s := range segs {
		if s < 0 {
			w.unaccounted += ms(-s) // spans out of order on one clock: a wrapper misplaced
		}
		sum += s
	}
	w.unaccounted += ms(absDur(rootDur - sum))
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// replayBudget bounds the serial replay of captured passes.
const replayBudget = 1500 * time.Millisecond

// replayed is the spectrum cost split measured by replaying captured passes.
type replayed struct {
	tagPasses              int
	build, coarse, refine  float64 // ms, summed
	foldNs                 float64
	foldSnaps, streamPeaks int
	streamPeak             float64 // ms, summed
	matched, compared      int
	wall, ideal            float64 // ms, summed over passes
}

// replay re-runs each captured pass's spectrum work serially, stage by stage,
// on the inputs the pipeline gave its estimator, with the compute pool at one
// worker so each stage's time is its CPU cost. Pass 1 of a calibrated locate
// scans Q; every other pass scans R (core.bootstrapKind). Each replay must
// reproduce the pipeline's peak bit for bit, or the split no longer describes
// what the pipeline ran.
func replay(passes []pass, calibrated bool) replayed {
	var r replayed
	workers := float64(sched.Workers())
	sched.SetWorkers(1)
	defer sched.SetWorkers(int(workers))
	deadline := time.Now().Add(replayBudget)
	for i, p := range passes {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		kind := spectrum.KindR
		if p.n == 1 && calibrated {
			kind = spectrum.KindQ
		}
		var cost float64
		for _, et := range p.tags {
			params := spectrum.Params{Disk: et.Tag.Disk}
			r.tagPasses++
			if p.streamed {
				match, peak := replayStream(&r, p.threeD, params, kind, et)
				cost += peak
				r.compared++
				if match {
					r.matched++
				}
			}
			t0 := time.Now()
			ev, err := spectrum.NewEvaluator(et.Snaps, params, kind)
			build := time.Since(t0)
			if err != nil {
				r.compared++
				continue
			}
			t1 := time.Now()
			est := peakOf(ev, p.threeD, spectrum.SearchOptions{})
			full := time.Since(t1)
			coarseEv, _ := spectrum.NewEvaluator(et.Snaps, params, kind)
			t2 := time.Now()
			peakOf(coarseEv, p.threeD, spectrum.SearchOptions{Refinements: spectrum.NoRefine})
			coarse := time.Since(t2)
			r.build += ms(build)
			r.coarse += ms(coarse)
			r.refine += ms(full - coarse)
			r.compared++
			if samePeak(est, et.Est) {
				r.matched++
			}
			if !p.streamed {
				cost += ms(build + full)
			}
		}
		r.wall += ms(p.wall)
		r.ideal += cost / min(float64(len(p.tags)), workers)
	}
	return r
}

// replayStream folds a streamed pass's snapshots into a fresh accumulator and
// finalizes it, as core.Stream does for the bootstrap pass.
func replayStream(r *replayed, threeD bool, params spectrum.Params, kind spectrum.Kind, et core.EstimatorTag) (match bool, peakMs float64) {
	var acc *spectrum.Accumulator
	var err error
	if threeD {
		acc, err = spectrum.NewAccumulator3D(params, kind, spectrum.SearchOptions{})
	} else {
		acc, err = spectrum.NewAccumulator2D(params, kind, spectrum.SearchOptions{})
	}
	if err != nil {
		return false, 0
	}
	t0 := time.Now()
	for _, s := range et.Snaps {
		if acc.Add(s) != nil {
			return false, 0
		}
	}
	r.foldNs += float64(time.Since(t0))
	r.foldSnaps += len(et.Snaps)
	t1 := time.Now()
	var est core.TagEstimate
	if threeD {
		pk, err := acc.FindPeak3D()
		if err != nil {
			return false, 0
		}
		est = core.TagEstimate{Azimuth: pk.Azimuth, Polar: pk.Polar, Power: pk.Power}
	} else {
		az, pow, err := acc.FindPeak2D()
		if err != nil {
			return false, 0
		}
		est = core.TagEstimate{Azimuth: az, Power: pow}
	}
	peak := ms(time.Since(t1))
	r.streamPeak += peak
	r.streamPeaks++
	return samePeak(est, et.Est), peak
}

func peakOf(ev *spectrum.Evaluator, threeD bool, opts spectrum.SearchOptions) core.TagEstimate {
	if threeD {
		pk := spectrum.FindPeak3DEval(ev, opts)
		return core.TagEstimate{Azimuth: pk.Azimuth, Polar: pk.Polar, Power: pk.Power}
	}
	az, pow := spectrum.FindPeak2DEval(ev, opts)
	return core.TagEstimate{Azimuth: az, Power: pow}
}

func samePeak(a, b core.TagEstimate) bool {
	return a.Azimuth == b.Azimuth && a.Polar == b.Polar && a.Power == b.Power
}

// layerReport is the traced run's per-layer metrics and validity checks.
type layerReport struct {
	metrics []metric
	invalid []string // failed validity checks
}

// perLayer derives the per-layer metrics from the traced phase, its counter
// deltas and a serial replay of the captured passes; untraced is the phase
// measured just before with tracing off, for the overhead.
func perLayer(d rig, tr *tracer, untraced, traced window, calibrated bool) layerReport {
	reqs, passes, seen, unattributed := tr.done()
	w := waterfall{solveByBackend: map[string][]float64{}}
	for _, req := range reqs {
		w.add(req)
	}
	rp := replay(passes, calibrated)
	t := traced.totals()
	locates := float64(t.items - t.failed)
	before, after := traced.before, traced.after
	perLocate := func(a, b float64) float64 { return ratio(a-b, locates) }

	var m []metric
	add := func(name, unit string, v float64) { m = append(m, metric{name, unit, v}) }
	add("core.passes", "count", ratio(float64(w.passes), float64(w.items)))
	add("core.pass1_ms", "ms", mean(w.pass1))
	add("core.passN_ms", "ms", mean(w.passN))
	add("core.result_ms", "ms", mean(w.result))

	n := float64(max(rp.tagPasses, 1))
	add("spectrum.build_ms", "ms", rp.build/n)
	add("spectrum.coarse_ms", "ms", rp.coarse/n)
	add("spectrum.refine_ms", "ms", rp.refine/n)
	add("spectrum.fold_us_per_snap", "us", ratio(rp.foldNs/1e3, float64(rp.foldSnaps)))
	add("spectrum.stream_peak_ms", "ms", ratio(rp.streamPeak, float64(rp.streamPeaks)))
	add("spectrum.replay_match", "share", ratio(float64(rp.matched), float64(rp.compared)))
	var scans, dense float64
	for _, f := range argmaxFields {
		delta := searchField(after.search, f) - searchField(before.search, f)
		scans += delta
		if f == "Dense2D" || f == "Dense3D" || f == "DenseNU2D" {
			dense += delta
		}
	}
	add("spectrum.dense_share", "share", ratio(dense, scans))
	for _, f := range routeFields {
		add("spectrum.route."+f+"_per_locate", "count", perLocate(searchField(after.search, f), searchField(before.search, f)))
	}
	hits := float64(after.plan.Hits - before.plan.Hits)
	misses := float64(after.plan.Misses - before.plan.Misses)
	add("spectrum.plan_cache_hit_rate", "share", ratio(hits, hits+misses))

	add("sched.jobs_per_locate", "count", perLocate(float64(after.pool.JobsRun), float64(before.pool.JobsRun)))
	add("sched.chunks_per_locate", "count", perLocate(float64(after.pool.ChunksRun), float64(before.pool.ChunksRun)))
	add("sched.pass_stretch", "ratio", ratio(rp.wall, rp.ideal))

	add("solve.grid_ms", "ms", mean(w.solveByBackend["grid"]))
	add("solve.ml_ms", "ms", mean(w.solveByBackend["ml"]))
	add("solve.share", "share", ratio(w.solveTotal, w.compute))

	collect := mean(w.collects)
	overrun := 0.0
	if len(w.collects) > 0 {
		overrun = collect - ms(d.pacedSession())
	}
	add("client.collect_ms", "ms", collect)
	add("client.collect_overrun_ms", "ms", overrun)
	add("client.attempts_per_collect", "count", mean(w.attempts))
	add("client.decode_us_per_report", "us", d.decodeUsPerReport())

	sb, sa := before.server.locsrv, after.server.locsrv
	add("locsrv.handler_ms", "ms", mean(w.handler))
	add("locsrv.finalize_ms", "ms", ratio(float64(sa.FinalizeNsTotal-sb.FinalizeNsTotal)/1e6, float64(sa.FinalizeCount-sb.FinalizeCount)))
	add("locsrv.http_ms", "ms", mean(w.http))
	add("locsrv.fallback_tags_per_locate", "count", ratio(float64(sa.StreamFallbackTags-sb.StreamFallbackTags), float64(sa.StreamLocates-sb.StreamLocates)))
	add("locsrv.max_backlog", "count", float64(sa.MaxAccumBacklog))
	add("locsrv.admission_rejects", "count", float64(sa.AdmissionRejects-sb.AdmissionRejects))

	add("coord.hop_ms", "ms", mean(w.hop))
	add("coord.split_skew", "ratio", mean(w.skew))
	add("coord.reroutes_per_batch", "count", ratio(float64(after.server.rerouted-before.server.rerouted), float64(len(w.hop))))

	var lags, drifts []float64
	for _, p := range []window{untraced, traced} {
		for _, l := range p.lags {
			lags = append(lags, ms(l))
		}
		for _, dr := range p.drifts {
			drifts = append(drifts, ms(dr))
		}
	}
	lag := zeroIfNaN(percentile(lags, 0.9))
	drift := zeroIfNaN(percentile(drifts, 0.9))
	unaccounted := ratio(w.unaccounted, w.root)
	unattributedShare := ratio(float64(unattributed), float64(seen))
	ul, _ := untraced.latencies()
	tl, _ := traced.latencies()
	base := percentile(ul, 0.5)
	add("gen.lag_p90_ms", "ms", lag)
	add("replay.pacing_drift_ms", "ms", drift)
	add("trace.unaccounted_share", "share", unaccounted)
	add("trace.unattributed_share", "share", unattributedShare)
	add("trace.overhead_share", "share", zeroIfNaN((percentile(tl, 0.5)-base)/base))

	var r layerReport
	r.metrics = m
	check := func(ok bool, what string) {
		if !ok {
			r.invalid = append(r.invalid, what)
		}
	}
	check(lag <= maxGenLagMs, "gen.lag_p90_ms above limit")
	check(drift <= maxDriftShare*ms(d.pacedSession()), "replay.pacing_drift_ms above limit")
	check(unaccounted <= 0.05, "trace.unaccounted_share above 0.05")
	check(unattributed == 0, "trace.unattributed_share above 0")
	check(rp.matched == rp.compared && rp.compared > 0, "spectrum.replay_match below 1")
	return r
}

// Validity limits of a traced run. The replay readers share the CPUs with
// the server, so a saturated server delays their timers; a session whose end
// slips by a quarter of its length no longer offers the intended load.
const (
	maxGenLagMs   = 5.0  // the open loop runs on schedule
	maxDriftShare = 0.25 // of the paced session length
)

func zeroIfNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}
