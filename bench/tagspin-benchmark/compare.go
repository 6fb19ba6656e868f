package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// childRun runs one workload in a fresh process, so process-wide state
// (plan cache, compute pool, heap) never leaks between runs, and parses the
// JSON line it ends with. A non-empty dir runs that checkout's benchmark
// through bench/run.sh instead of this binary.
func childRun(dir, workload string, seed int64, seconds float64, trace bool, stdout, stderr io.Writer) (result, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	var cmd *exec.Cmd
	if dir == "" {
		exe, err := os.Executable()
		if err != nil {
			return result{}, err
		}
		cmd = exec.Command(exe, args...)
	} else {
		cmd = exec.Command("bash", append([]string{filepath.Join("bench", "run.sh")}, args...)...)
		cmd.Dir = dir
	}
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, stdout)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return result{}, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	return res, nil
}

// runChildren runs the selected workloads, each repeat times on consecutive
// seeds. With one repeat it passes every line through and ends with a
// combined result whose metrics are keyed workload.metric; with more it
// prints each metric's median and quartiles over the repeats.
func runChildren(name string, seed int64, seconds float64, trace bool, repeat int, out string, stdout, stderr io.Writer) int {
	ws, err := selected(name)
	if err != nil {
		fmt.Fprintln(stderr, "tagspin-benchmark:", err)
		return 2
	}
	combined := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range ws {
		values := map[string][]float64{}
		units := map[string]string{}
		echo := stdout
		if repeat > 1 {
			echo = io.Discard
		}
		for i := range repeat {
			res, err := childRun("", w, seed+int64(i), seconds, trace, echo, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "tagspin-benchmark:", err)
				return 1
			}
			combined.Correct = combined.Correct && res.Correct
			combined.Attempted += res.Attempted
			combined.Failed += res.Failed
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
		}
		for _, k := range sortedKeys(values) {
			q1, q2, q3 := quartiles(values[k])
			combined.Metrics[w+"."+k] = value{q2, units[k]}
			if repeat > 1 {
				fmt.Fprintf(stdout, "%s %s %s %s q1=%g q3=%g iqr_share=%.4f n=%d\n",
					w, k, strconv.FormatFloat(q2, 'g', -1, 64), units[k], q1, q3, ratio(q3-q1, math.Abs(q2)), len(values[k]))
			}
		}
	}
	if err := emit(combined, out, stdout); err != nil {
		fmt.Fprintln(stderr, "tagspin-benchmark:", err)
		return 1
	}
	if !combined.Correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// benchSpec is the part of BENCHMARK.json the comparison and the smoke test
// read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// comparePairs is how many alternating pairs a comparison runs: the fewest
// on which "wins at least nine tenths" means something.
const comparePairs = 10

// runCompare runs the parent and change checkouts in comparePairs
// alternating pairs on the same seeds and judges every end-to-end metric of
// every workload:
//
//   - gain: the change wins at least 9 of 10 pairs (ties count for neither)
//     and the medians differ by more than the parent's interquartile range;
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json;
//   - unresolved: the parent's own spread exceeds the bound, unless every
//     change run beats every parent run.
//
// Any failed locate on the change side fails the comparison.
func runCompare(parent, change, name string, seed int64, seconds float64, stdout, stderr io.Writer) int {
	ws, err := selected(name)
	if err != nil {
		fmt.Fprintln(stderr, "tagspin-benchmark:", err)
		return 2
	}
	raw, err := os.ReadFile(filepath.Join(change, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "tagspin-benchmark:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(stderr, "tagspin-benchmark: BENCHMARK.json:", err)
		return 1
	}
	status := 0
	fmt.Fprintln(stdout, "workload metric parent_median change_median change_share wins verdict")
	for _, w := range ws {
		var runs [2][]result
		failed := 0
		for i := range comparePairs {
			s := seed + int64(i)
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				dir := []string{parent, change}[side]
				res, err := childRun(dir, w, s, seconds, false, io.Discard, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "tagspin-benchmark:", err)
					return 1
				}
				runs[side] = append(runs[side], res)
				if side == 1 {
					failed += res.Failed
				}
			}
		}
		for _, m := range spec.EndToEnd {
			p, c := column(runs[0], m.Name), column(runs[1], m.Name)
			sign := 1.0 // +1 when higher is better
			if m.Better == "lower" {
				sign = -1
			}
			wins := 0
			for i := range p {
				if sign*(c[i]-p[i]) > 0 {
					wins++
				}
			}
			pq1, pm, pq3 := quartiles(p)
			_, cm, _ := quartiles(c)
			verdict := "unchanged"
			switch {
			case ratio(pq3-pq1, pm) > m.Bound && !allBetter(c, p, sign):
				verdict = "unresolved"
			case -sign*(cm-pm) > m.Bound*math.Abs(pm):
				verdict = "REGRESSED"
				status = 1
			case 10*wins >= 9*len(p) && sign*(cm-pm) > pq3-pq1:
				verdict = "gain"
			}
			fmt.Fprintf(stdout, "%s %s %g %g %+.4f %d/%d %s\n", w, m.Name, pm, cm, ratio(cm-pm, pm), wins, len(p), verdict)
		}
		if failed > 0 {
			fmt.Fprintf(stdout, "%s failed_locates %d FAILED\n", w, failed)
			status = 1
		}
	}
	return status
}

// column extracts one metric from a series of results.
func column(rs []result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// allBetter reports whether every change value beats every parent value.
func allBetter(change, parent []float64, sign float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) <= 0 {
				return false
			}
		}
	}
	return len(change) > 0
}
