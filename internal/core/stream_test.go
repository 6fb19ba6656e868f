package core_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/sched"
	"github.com/tagspin/tagspin/internal/tags"
	"github.com/tagspin/tagspin/internal/testbed"
)

// replay feeds every snapshot in obs to sink in global time order,
// interleaving tags the way a live reader session would, then returns obs —
// the shape Locate2DStream's collect callback expects.
func replay(obs core.Observations) func(sink func(tags.EPC, phase.Snapshot)) (core.Observations, error) {
	type item struct {
		epc  tags.EPC
		snap phase.Snapshot
	}
	var items []item
	for epc, snaps := range obs {
		for _, s := range snaps {
			items = append(items, item{epc, s})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].snap.Time < items[j].snap.Time })
	return func(sink func(tags.EPC, phase.Snapshot)) (core.Observations, error) {
		for _, it := range items {
			sink(it.epc, it.snap)
		}
		return obs, nil
	}
}

// collectScenario builds a collected, calibrated 2D scenario at full length.
func collectScenario(t *testing.T, seed int64) ([]core.SpinningTag, core.Observations) {
	t.Helper()
	return collectRotations(t, seed, 0)
}

// longScenario is collectScenario over 2.15 rotations, the real session
// length of the golden traces (≥288 reads per tag).
func longScenario(t *testing.T, seed int64) ([]core.SpinningTag, core.Observations) {
	t.Helper()
	registered, obs := collectRotations(t, seed, 2.15)
	for epc, snaps := range obs {
		if len(snaps) < 288 {
			t.Fatalf("tag %s has %d reads, want ≥288", epc, len(snaps))
		}
	}
	return registered, obs
}

// collectRotations builds the scenario over the given number of rotations
// (zero keeps the scenario default).
func collectRotations(t *testing.T, seed int64, rotations float64) ([]core.SpinningTag, core.Observations) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sc := testbed.DefaultScenario(0, rng)
	sc.Rotations = rotations
	sc.PlaceReader(geom.V3(-1.8, 1.4, 0))
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	return registered, col.Obs
}

// TestStreamLocate2DMatchesBatch checks the headline equivalence: a streamed
// 2D locate of a full-length session is bit-identical to the batch locate on
// the same observations, with every tag finalized from its accumulator.
func TestStreamLocate2DMatchesBatch(t *testing.T) {
	for _, cfg := range []struct {
		name string
		cfg  core.Config
	}{
		{"default", core.Config{}},
		{"orientation-off", core.Config{DisableOrientation: true}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			registered, obs := collectScenario(t, 42)
			loc := core.NewLocator(cfg.cfg)
			want, err := loc.Locate2D(registered, obs)
			if err != nil {
				t.Fatal(err)
			}

			st := loc.NewStream2D(registered)
			defer st.Close()
			if _, err := replay(obs)(st.Report); err != nil {
				t.Fatal(err)
			}
			st.Quiesce()
			if b := st.Backlog(); b != 0 {
				t.Errorf("backlog = %d after Quiesce, want 0", b)
			}
			got, err := st.Finalize2D(t.Context(), obs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("streamed result differs from batch:\n got %+v\nwant %+v", got, want)
			}
			stats := st.Stats()
			if stats.StreamedTags != int64(len(want.Bearings)) || stats.FallbackTags != 0 {
				t.Errorf("stats = %+v, want all %d tags streamed", stats, len(want.Bearings))
			}
			if stats.Snapshots == 0 {
				t.Error("no snapshots counted")
			}
		})
	}
}

// TestStreamLocate2DHelper exercises the one-call Locate2DStream wrapper on
// a hopping scenario, where each tag accumulates on several carriers and the
// finalize must pick the dominant one just like batch selection does.
func TestStreamLocate2DHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sc := testbed.DefaultScenario(0, rng)
	sc.HopChannel = -1
	sc.Rotations = 6
	sc.ReadRateHz = 160
	sc.PlaceReader(geom.V3(-1.2, 2.0, 0))
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	loc := core.NewLocator(core.Config{MinSnapshots: 8})
	want, err := loc.Locate2D(registered, col.Obs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loc.Locate2DStream(t.Context(), registered, replay(col.Obs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed hopping result differs from batch:\n got %+v\nwant %+v", got, want)
	}
}

// TestStreamLocate3DMatchesBatch is the 3D equivalence check.
func TestStreamLocate3DMatchesBatch(t *testing.T) {
	for _, cfg := range []struct {
		name string
		cfg  core.Config
	}{
		{"exact", core.Config{}},
		{"orientation-off", core.Config{DisableOrientation: true}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			sc := testbed.DefaultScenario(0.095, rng)
			sc.PlaceReader(geom.V3(-1.5, 1.6, 0.8))
			registered, err := sc.CalibratedSpinningTags(rng)
			if err != nil {
				t.Fatal(err)
			}
			col, err := sc.Collect(rng)
			if err != nil {
				t.Fatal(err)
			}
			obs := col.Obs
			loc := core.NewLocator(cfg.cfg)
			want, err := loc.Locate3D(registered, obs)
			if err != nil {
				t.Fatal(err)
			}
			st := loc.NewStream3D(registered)
			defer st.Close()
			if _, err := replay(obs)(st.Report); err != nil {
				t.Fatal(err)
			}
			got, err := st.Finalize3D(t.Context(), obs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("streamed 3D result differs from batch:\n got %+v\nwant %+v", got, want)
			}
			if stats := st.Stats(); stats.StreamedTags != int64(len(want.Bearings)) || stats.FallbackTags != 0 {
				t.Errorf("stats = %+v, want all %d tags streamed", stats, len(want.Bearings))
			}
		})
	}
}

// TestStreamLongSessionCountsFallbacks runs a full-length session (≥288
// reads per tag, far past the batch coarse pass's term subset): every tag
// must finalize from its accumulator and count as streamed — not as a
// fallback — while returning the batch answer.
func TestStreamLongSessionCountsFallbacks(t *testing.T) {
	registered, obs := longScenario(t, 42)
	loc := core.NewLocator(core.Config{})
	want, err := loc.Locate2D(registered, obs)
	if err != nil {
		t.Fatal(err)
	}
	st := loc.NewStream2D(registered)
	defer st.Close()
	if _, err := replay(obs)(st.Report); err != nil {
		t.Fatal(err)
	}
	got, err := st.Finalize2D(t.Context(), obs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("long streamed result differs from batch:\n got %+v\nwant %+v", got, want)
	}
	if stats := st.Stats(); stats.StreamedTags != int64(len(obs)) || stats.FallbackTags != 0 {
		t.Errorf("stats = %+v, want all %d tags streamed", stats, len(obs))
	}
}

// TestStreamIngestSubmitsNoPoolJobs pins the ingestion cost: streaming a
// full-length session through Report and Quiesce only prepares terms, so it
// must submit no jobs to the shared compute pool even when the pool is wide
// enough to take them.
func TestStreamIngestSubmitsNoPoolJobs(t *testing.T) {
	registered, obs := longScenario(t, 42)
	old := sched.Workers()
	sched.SetWorkers(2)
	defer sched.SetWorkers(old)
	for _, threeD := range []bool{false, true} {
		loc := core.NewLocator(core.Config{})
		newStream := loc.NewStream2D
		if threeD {
			newStream = loc.NewStream3D
		}
		st := newStream(registered)
		before := sched.PoolStats().JobsRun
		if _, err := replay(obs)(st.Report); err != nil {
			t.Fatal(err)
		}
		st.Quiesce()
		if jobs := sched.PoolStats().JobsRun - before; jobs != 0 {
			t.Errorf("threeD=%v: streaming %d snapshots submitted %d pool jobs, want 0",
				threeD, st.Stats().Snapshots, jobs)
		}
		st.Close()
	}
}

// TestStreamDisorderedFallsBack poisons one tag's channel with an
// out-of-order snapshot: that tag must fall back to the batch path, the rest
// must still stream, and the final answer must be unchanged.
func TestStreamDisorderedFallsBack(t *testing.T) {
	registered, obs := collectScenario(t, 42)
	loc := core.NewLocator(core.Config{})
	want, err := loc.Locate2D(registered, obs)
	if err != nil {
		t.Fatal(err)
	}

	st := loc.NewStream2D(registered)
	defer st.Close()
	victim := registered[0].EPC
	for epc, snaps := range obs {
		if epc == victim {
			// Reverse order breaks the strictly-increasing guarantee.
			for i := len(snaps) - 1; i >= 0; i-- {
				st.Report(epc, snaps[i])
			}
			continue
		}
		for _, s := range snaps {
			st.Report(epc, s)
		}
	}
	got, err := st.Finalize2D(t.Context(), obs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("disordered stream result differs from batch:\n got %+v\nwant %+v", got, want)
	}
	stats := st.Stats()
	if stats.FallbackTags == 0 {
		t.Errorf("stats = %+v, want the poisoned tag to fall back", stats)
	}
	if stats.StreamedTags == 0 {
		t.Errorf("stats = %+v, want the clean tags to stream", stats)
	}
}

// TestStreamKindMismatchFallsBack registers an orientation-calibrated tag
// that never shows up in the observations: the stream bootstraps KindQ but
// the finalize's present set implies KindR, so every tag must take the batch
// path — and still match the batch answer for the same registration list.
func TestStreamKindMismatchFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(-1.8, 1.4, 0))
	calibrated, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the orientation from every present tag, then register one extra
	// orientation-calibrated tag that has no observations.
	registered := make([]core.SpinningTag, len(calibrated))
	for i, tag := range calibrated {
		tag.Orientation = nil
		registered[i] = tag
	}
	ghost := calibrated[0]
	ghost.EPC = tags.EPC{0xde, 0xad, 0xbe, 0xef}
	registered = append(registered, ghost)

	loc := core.NewLocator(core.Config{})
	want, err := loc.Locate2D(registered, col.Obs)
	if err != nil {
		t.Fatal(err)
	}
	st := loc.NewStream2D(registered)
	defer st.Close()
	if _, err := replay(col.Obs)(st.Report); err != nil {
		t.Fatal(err)
	}
	got, err := st.Finalize2D(t.Context(), col.Obs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kind-mismatch stream result differs from batch:\n got %+v\nwant %+v", got, want)
	}
	stats := st.Stats()
	if stats.StreamedTags != 0 || stats.FallbackTags == 0 {
		t.Errorf("stats = %+v, want full batch fallback", stats)
	}
}

// TestStreamResetDiscardsState streams a garbage prefix, resets (as a
// collection retry would), streams the real session, and checks the poisoned
// first attempt leaves no trace in the final answer.
func TestStreamResetDiscardsState(t *testing.T) {
	registered, obs := collectScenario(t, 42)
	loc := core.NewLocator(core.Config{})
	want, err := loc.Locate2D(registered, obs)
	if err != nil {
		t.Fatal(err)
	}
	st := loc.NewStream2D(registered)
	defer st.Close()
	// Failed first attempt: a partial, disordered prefix.
	for epc, snaps := range obs {
		for i := len(snaps) - 1; i >= 0 && i > len(snaps)-5; i-- {
			st.Report(epc, snaps[i])
		}
	}
	st.Reset()
	if _, err := replay(obs)(st.Report); err != nil {
		t.Fatal(err)
	}
	got, err := st.Finalize2D(t.Context(), obs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-reset result differs from batch:\n got %+v\nwant %+v", got, want)
	}
	if stats := st.Stats(); stats.FallbackTags != 0 {
		t.Errorf("stats = %+v, want no fallbacks after reset", stats)
	}
}

// TestStreamFinalizeCanceled cancels the request context after streaming:
// the finalize must surface the cancellation exactly like the batch
// pipeline's context check.
func TestStreamFinalizeCanceled(t *testing.T) {
	registered, obs := collectScenario(t, 42)
	loc := core.NewLocator(core.Config{})
	st := loc.NewStream2D(registered)
	defer st.Close()
	if _, err := replay(obs)(st.Report); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := st.Finalize2D(ctx, obs); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestStreamErrorParity checks the streamed finalize surfaces the same
// validation errors as batch.
func TestStreamErrorParity(t *testing.T) {
	registered, obs := collectScenario(t, 23)
	loc := core.NewLocator(core.Config{})

	starved := make(core.Observations)
	for epc, snaps := range obs {
		starved[epc] = snaps[:3]
	}
	st := loc.NewStream2D(registered)
	defer st.Close()
	if _, err := replay(starved)(st.Report); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Finalize2D(t.Context(), starved); !errors.Is(err, core.ErrTooFewSnapshots) {
		t.Errorf("err = %v, want ErrTooFewSnapshots", err)
	}

	st2 := loc.NewStream2D(nil)
	defer st2.Close()
	if _, err := st2.Finalize2D(t.Context(), obs); !errors.Is(err, core.ErrTooFewTags) {
		t.Errorf("err = %v, want ErrTooFewTags", err)
	}
}
