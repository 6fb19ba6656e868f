package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"github.com/tagspin/tagspin/internal/experiment"
)

// accuracySchema versions the ACCURACY.json layout.
const accuracySchema = "tagspin-accuracy/1"

// accuracyExperiments are the localization experiments the accuracy gate
// records, each at its default trial count.
var accuracyExperiments = []string{"F10a", "F10b", "F11b", "X2"}

// accuracySeeds are the fixed seeds the gate runs every experiment on. The
// same seed draws the same worlds, placements and noise on any tree, so
// two reports pair trial by trial.
var accuracySeeds = []int64{0, 1, 2, 3, 4}

// mlArms names the arms the joint-ML backend solves; every other arm runs
// the grid backend.
var mlArms = map[string]bool{"ml2D": true, "ml3D": true}

// accuracyMoveM is the per-trial error change the compare lists by trial.
const accuracyMoveM = 0.01

// accuracyLossM is the smallest error rise the compare can call a loss.
// An arm fails the gate when its median delta rises by more than this and
// a sign test puts the count of worse trials over the count of better ones
// by more than two standard deviations, or when its mean delta rises by
// more than this and by more than twice its standard error. The median and
// sign test catch a shift of the typical trial that a few huge outliers
// would hide behind the mean's standard error; the mean catches a tail
// that leaves the median alone.
const accuracyLossM = 0.001

// accuracyReport is the ACCURACY.json envelope: one run per experiment and
// seed, each holding the per-trial errors of every arm.
type accuracyReport struct {
	Schema string        `json:"schema"`
	Runs   []accuracyRun `json:"runs"`
}

// accuracyRun is one experiment run on one seed.
type accuracyRun struct {
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	// Arms maps each arm to its per-trial errors (meters), in trial order.
	Arms map[string][]float64 `json:"arms,omitempty"`
	// Error is why the run stopped (a trial's locate failed); such a run
	// records no arms.
	Error string `json:"error,omitempty"`
}

// writeAccuracyJSON runs the accuracy experiments on the fixed seeds and
// writes their per-trial errors to path. An experiment stops at the first
// trial whose locate fails; that run is recorded with its error, so the
// compare can fail it, and the other runs go on.
func writeAccuracyJSON(path string) error {
	report := accuracyReport{Schema: accuracySchema}
	for _, id := range accuracyExperiments {
		r, err := experiment.ByID(id)
		if err != nil {
			return err
		}
		for _, seed := range accuracySeeds {
			res, err := r.Run(experiment.Options{Seed: seed})
			if err != nil {
				report.Runs = append(report.Runs, accuracyRun{Experiment: id, Seed: seed, Error: err.Error()})
				fmt.Fprintf(os.Stderr, "tagspin-bench: accuracy %s seed %d failed: %v\n", id, seed, err)
				continue
			}
			if len(res.Errors) == 0 {
				return fmt.Errorf("%s reports no per-trial errors", id)
			}
			report.Runs = append(report.Runs, accuracyRun{Experiment: id, Seed: seed, Arms: res.Errors})
			fmt.Fprintf(os.Stderr, "tagspin-bench: accuracy %s seed %d done\n", id, seed)
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readAccuracyReport parses an ACCURACY.json.
func readAccuracyReport(path string) (accuracyReport, error) {
	var report accuracyReport
	data, err := os.ReadFile(path)
	if err != nil {
		return report, err
	}
	if err := json.Unmarshal(data, &report); err != nil {
		return report, fmt.Errorf("parse %s: %w", path, err)
	}
	if report.Schema != accuracySchema {
		return report, fmt.Errorf("%s: schema %q, want %q", path, report.Schema, accuracySchema)
	}
	return report, nil
}

// armDeltas is one arm's paired comparison across every seed.
type armDeltas struct {
	experiment, arm string
	deltas          []float64 // new − old error per trial (meters)
	identical       int       // trials whose error kept every bit
	moved           []string  // trials that moved more than accuracyMoveM
}

// compareAccuracy pairs the trials of two accuracy reports (spec is
// "old.json,new.json") by experiment, seed, arm and trial index, and
// writes, per arm, how many trials kept every bit, got worse and got
// better, the mean, p50 and p90 of the error deltas and the largest
// |delta|, then every trial that moved more than accuracyMoveM. An arm whose errors rose (accuracyLossM) is a loss,
// and any loss fails the compare. So does a run that failed in the
// new report but not in the old, and a run present on one side only (the
// reports were not run on the same seeds).
func compareAccuracy(spec string, w io.Writer) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("accuracycompare wants 'old.json,new.json', got %q", spec)
	}
	oldRep, err := readAccuracyReport(strings.TrimSpace(parts[0]))
	if err != nil {
		return err
	}
	newRep, err := readAccuracyReport(strings.TrimSpace(parts[1]))
	if err != nil {
		return err
	}
	type runKey struct {
		experiment string
		seed       int64
	}
	oldRuns := make(map[runKey]accuracyRun, len(oldRep.Runs))
	for _, r := range oldRep.Runs {
		oldRuns[runKey{r.Experiment, r.Seed}] = r
	}
	var arms []*armDeltas
	var losses []string
	byArm := map[string]*armDeltas{}
	for _, nr := range newRep.Runs {
		or, ok := oldRuns[runKey{nr.Experiment, nr.Seed}]
		if !ok {
			return fmt.Errorf("%s seed %d: not in %s", nr.Experiment, nr.Seed, parts[0])
		}
		delete(oldRuns, runKey{nr.Experiment, nr.Seed})
		if nr.Error != "" || or.Error != "" {
			if nr.Error != "" && or.Error == "" {
				losses = append(losses, fmt.Sprintf("%s seed %d: run failed: %s", nr.Experiment, nr.Seed, nr.Error))
			}
			fmt.Fprintf(w, "accuracy-compare: %s seed %d not paired (old error %q, new error %q)\n",
				nr.Experiment, nr.Seed, or.Error, nr.Error)
			continue
		}
		names := make([]string, 0, len(nr.Arms))
		for name := range nr.Arms {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			newErrs, oldErrs := nr.Arms[name], or.Arms[name]
			if len(newErrs) != len(oldErrs) {
				return fmt.Errorf("%s seed %d arm %s: %d trials against %d", nr.Experiment, nr.Seed, name, len(newErrs), len(oldErrs))
			}
			key := nr.Experiment + "/" + name
			a := byArm[key]
			if a == nil {
				a = &armDeltas{experiment: nr.Experiment, arm: name}
				byArm[key] = a
				arms = append(arms, a)
			}
			for i, ne := range newErrs {
				d := ne - oldErrs[i]
				a.deltas = append(a.deltas, d)
				if math.Float64bits(ne) == math.Float64bits(oldErrs[i]) {
					a.identical++
				}
				if math.Abs(d) > accuracyMoveM {
					a.moved = append(a.moved, fmt.Sprintf("%s/%s seed %d trial %d: %.2f -> %.2f cm",
						nr.Experiment, name, nr.Seed, i, oldErrs[i]*100, ne*100))
				}
			}
		}
	}
	for k := range oldRuns {
		return fmt.Errorf("%s seed %d: not in %s", k.experiment, k.seed, parts[1])
	}

	fmt.Fprintf(w, "accuracy-compare: %s -> %s (paired deltas new − old, cm)\n", parts[0], parts[1])
	fmt.Fprintf(w, "  %-14s %-7s %6s %9s %6s %6s %10s %10s %10s %10s  %s\n",
		"arm", "backend", "trials", "identical", "worse", "better", "mean", "p50", "p90", "max|Δ|", "verdict")
	var moved []string
	for _, a := range arms {
		backend := "grid"
		if mlArms[a.arm] {
			backend = "ml"
		}
		mean, se := meanSE(a.deltas)
		sorted := slices.Clone(a.deltas)
		slices.Sort(sorted)
		var maxAbs float64
		for _, d := range a.deltas {
			maxAbs = max(maxAbs, math.Abs(d))
		}
		p50 := quantile(sorted, 0.5)
		worse, better := 0, 0
		for _, d := range a.deltas {
			if d > 0 {
				worse++
			} else if d < 0 {
				better++
			}
		}
		var sign float64 // (worse − better) in standard deviations
		if worse+better > 0 {
			sign = float64(worse-better) / math.Sqrt(float64(worse+better))
		}
		verdict := "unchanged"
		switch {
		case a.identical == len(a.deltas):
			verdict = "identical"
		case (p50 > accuracyLossM && sign > 2) || (mean > accuracyLossM && mean > 2*se):
			verdict = "LOSS"
			losses = append(losses, fmt.Sprintf("%s/%s: error delta mean %+.2f cm (±%.2f cm s.e.), p50 %+.2f cm",
				a.experiment, a.arm, mean*100, se*100, p50*100))
		case (p50 < -accuracyLossM && sign < -2) || (mean < -accuracyLossM && -mean > 2*se):
			verdict = "gain"
		}
		fmt.Fprintf(w, "  %-14s %-7s %6d %9d %6d %6d %+10.4f %+10.4f %+10.4f %10.2g  %s\n",
			a.experiment+"/"+a.arm, backend, len(a.deltas), a.identical, worse, better,
			mean*100, p50*100, quantile(sorted, 0.9)*100, maxAbs*100, verdict)
		moved = append(moved, a.moved...)
	}
	fmt.Fprintf(w, "accuracy-compare: %d trial(s) moved more than %.0f cm\n", len(moved), accuracyMoveM*100)
	for _, m := range moved {
		fmt.Fprintf(w, "  %s\n", m)
	}
	if len(losses) > 0 {
		return fmt.Errorf("%d loss(es):\n  %s", len(losses), strings.Join(losses, "\n  "))
	}
	fmt.Fprintf(w, "accuracy-compare: no arm lost accuracy\n")
	return nil
}

// meanSE returns the mean of xs and its standard error.
func meanSE(xs []float64) (mean, se float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / (n - 1) / n)
}

// quantile returns the q-quantile of sorted by the nearest-rank rule; zero
// when sorted is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
