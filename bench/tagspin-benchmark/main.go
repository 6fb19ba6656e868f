// Command tagspin-benchmark is the repository's benchmark: one seeded
// command that runs the workloads production traffic is made of, prints every
// end-to-end and per-layer metric as "workload metric value unit", checks the
// answers against an oracle, and ends with one JSON result line.
//
//	go run ./tagspin-benchmark -workload serve2d -seed 1 -seconds 20 -trace 0
//
// The session generator runs in this process; the program under test receives
// only the generated observations (in-process workloads) or LLRP reports from
// replay readers (wire workloads). -trace 1 runs half the time untraced and
// half with timing wrappers around the public seams of each layer, and
// reports the per-layer metrics instead of the end-to-end ones. See
// bench/README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/tagspin/tagspin/internal/spectrum"
)

// workload is one traffic shape the benchmark runs.
type workload struct {
	name       string
	calibrated bool // registry carries orientation calibrations
	// A request is late (late_share) when it fails, when its tail exceeds
	// maxTail, or when its latency exceeds maxLatency; zero is no limit.
	maxTail, maxLatency time.Duration
	maxErrCm            float64 // oracle ceiling on err_p90_cm, about twice its maximum over seeds 1–30
	build               func(seed int64) (rig, error)
}

// late reports whether a request missed the workload's latency limit.
func (w workload) late(s sample) bool {
	return s.failed > 0 || (w.maxTail > 0 && s.tail > w.maxTail) || (w.maxLatency > 0 && s.lat > w.maxLatency)
}

// A run builds its stack anew at least coldStarts times, and keeps
// starting until setupFor has passed; setup_s is the median. Each start
// answers a different session, so the median does not hang on one session's
// cost, and a workload whose start takes milliseconds gets enough of them
// that the median is steady. coldStarts is the smallest session pool's size
// (locate3d's 16 placements), so every start of a run together answers the
// whole pool: with 9 starts, which 9 of its 16 sessions a seed's pool led
// with moved locate3d's setup_s by 0.37 (quartile spread over ten seeds).
const (
	coldStarts = 16
	setupFor   = time.Second
)

// connections is the open loop's connection count: two, or fewer on a
// one-CPU machine, so the generator never runs more clients than CPUs.
func connections() int { return min(2, runtime.NumCPU()) }

var workloads = []workload{
	{name: "locate2d", calibrated: true, maxErrCm: 40, build: func(seed int64) (rig, error) {
		return newInproc(seed, siteShape{deployments: 4, placements: 32, perSlot: 1, rotations: 2, calibrated: true})
	}},
	{name: "locate3d", calibrated: true, maxErrCm: 60, build: func(seed int64) (rig, error) {
		return newInproc(seed, siteShape{deployments: 4, placements: 4, perSlot: 1, threeD: true, rotations: 2, calibrated: true})
	}},
	{name: "serve2d", calibrated: true, maxTail: 25 * time.Millisecond, maxErrCm: 40, build: func(seed int64) (rig, error) {
		return newServe(seed, siteShape{deployments: 4, placements: 8, perSlot: 4, rotations: 2, calibrated: true}, 20, connections())
	}},
	{name: "portal-ml", maxLatency: 600 * time.Millisecond, maxErrCm: 80, build: func(seed int64) (rig, error) {
		return newPortal(seed, siteShape{deployments: 4, placements: 4, perSlot: 4, rotations: 4})
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// runConfig is one workload run.
type runConfig struct {
	seed       int64
	seconds    float64
	trace      bool
	warmup     time.Duration
	coldStarts int
	setupFor   time.Duration
	spans      string
}

// report is the outcome of one workload run.
type report struct {
	workload  string
	endToEnd  []metric
	layers    []metric
	attempted int
	failed    int
	wrong     []string // oracle violations: the answers are not right
	// invalid lists the traced run's failed validity checks. They say the
	// per-layer numbers cannot be trusted, not that the program answered
	// wrongly, so they are printed but leave the result correct: a change
	// that alters what a pass calls drops spectrum.replay_match without
	// being wrong.
	invalid []string
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload: cold starts, warm-up, the measured phase (two
// halves when traced), then the oracle.
func run(w workload, cfg runConfig) (report, error) {
	rep := report{workload: w.name}
	d, err := w.build(cfg.seed)
	if err != nil {
		return rep, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer d.stop()
	var setups []float64
	setupEnd := time.Now().Add(cfg.setupFor)
	for len(setups) < cfg.coldStarts || time.Now().Before(setupEnd) {
		runtime.GC() // no start pays for collecting its predecessor's garbage
		spectrum.ResetPlanCache()
		t0 := time.Now()
		if err := d.start(nil); err != nil {
			return rep, fmt.Errorf("%s cold start: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	warm := d.drive(time.Now().Add(cfg.warmup), nil)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var phases []window
	if !cfg.trace {
		p := measure(d, dur, nil)
		phases = append(phases, p)
		rep.endToEnd = endToEnd(p, setups)
	} else {
		u := measure(d, dur/2, nil)
		tr := d.newTracer()
		if err := d.start(tr); err != nil {
			return rep, fmt.Errorf("%s traced start: %w", w.name, err)
		}
		tr.clear()
		t := measure(d, dur/2, tr)
		phases = append(phases, u, t)
		rep.endToEnd = endToEnd(u, setups)
		lr := perLayer(d, tr, u, t, w.calibrated)
		rep.layers = lr.metrics
		rep.invalid = lr.invalid
		if cfg.spans != "" {
			if err := tr.writeSpans(cfg.spans); err != nil {
				return rep, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	var tot totals
	late := 0
	for _, p := range phases {
		t := p.totals()
		tot.requests += t.requests
		tot.items += t.items
		tot.failed += t.failed
		tot.wrong += t.wrong
		for _, s := range p.samples {
			if w.late(s) {
				late++
			}
		}
	}
	rep.attempted, rep.failed = tot.items, tot.failed
	errs := d.errors()
	for i := range errs {
		errs[i] *= 100
	}
	p90 := percentile(errs, 0.9)
	_, tail := phases[0].latencies() // untraced
	rep.layers = append(rep.layers,
		metric{"tail_p50_ms", "ms", percentile(tail, 0.5)},
		metric{"tail_p80_ms", "ms", percentile(tail, highP)},
		metric{"err_p50_cm", "cm", percentile(errs, 0.5)},
		metric{"err_p90_cm", "cm", p90},
		metric{"failed_share", "share", ratio(float64(tot.failed), float64(tot.items))},
		metric{"wrong_share", "share", ratio(float64(tot.wrong), float64(tot.items))},
		metric{"late_share", "share", ratio(float64(late), float64(tot.requests))},
	)
	if n := tot.wrong + warm.totals().wrong; n > 0 {
		rep.wrong = append(rep.wrong, fmt.Sprintf("%d answers differ from the reference", n))
	}
	if n := tot.failed + warm.totals().failed; n > 0 {
		rep.wrong = append(rep.wrong, fmt.Sprintf("%d locates failed", n))
	}
	if !(p90 <= w.maxErrCm) {
		rep.wrong = append(rep.wrong, fmt.Sprintf("err_p90_cm %.2f above the %.0f cm ceiling", p90, w.maxErrCm))
	}
	return rep, nil
}

// highP is the upper latency percentile: the highest that leaves at least
// ten samples beyond it on every workload in a 20 s run, where locate3d and
// the portal's batches complete 55–110 requests as the machine's speed
// varies.
const highP = 0.80

// endToEnd computes the gated metrics of an untraced phase.
func endToEnd(p window, setups []float64) []metric {
	lat, _ := p.latencies()
	t := p.totals()
	ok := float64(t.items - t.failed)
	return []metric{
		{"setup_s", "s", percentile(setups, 0.5)},
		{"throughput_lps", "1/s", ok / p.elapsed.Seconds()},
		{"latency_p50_ms", "ms", percentile(lat, 0.5)},
		{"latency_p80_ms", "ms", percentile(lat, highP)},
		{"alloc_kb_per_locate", "KB", ratio(float64(p.allocBytes)/1024, float64(t.items))},
		{"heap_peak_mb", "MB", float64(p.heapPeak) / (1 << 20)},
	}
}

// result shapes a report as the final JSON line: the end-to-end metrics, or
// with trace the per-layer ones.
func (r report) result(trace bool) result {
	res := result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	ms := r.endToEnd
	if trace {
		ms = r.layers
	}
	for _, m := range ms {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	return res
}

// print writes every metric as "workload metric value unit".
func (r report) print(w io.Writer) {
	for _, m := range append(r.endToEnd, r.layers...) {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	for _, p := range r.wrong {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", r.workload, p)
	}
	for _, p := range r.invalid {
		fmt.Fprintf(w, "%s INVALID TRACE: %s\n", r.workload, p)
	}
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tagspin-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: "+names()+", or all")
		seed    = fs.Int64("seed", 1, "seed for placements, noise and arrival times")
		seconds = fs.Float64("seconds", 20, "measured seconds per workload (split in two halves when tracing)")
		trace   = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
		out     = fs.String("out", "", "also write the result JSON to this file")
		spans   = fs.String("spans", "", "write the traced run's spans to this file as JSON lines")
		repeat  = fs.Int("repeat", 1, "run each workload this many times on consecutive seeds and print each metric's median and quartiles")
		compare = fs.String("compare", "", "parent,change: two checkout directories to run in alternating pairs and compare")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "tagspin-benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	if *compare != "" {
		dirs := strings.Split(*compare, ",")
		if len(dirs) != 2 {
			fmt.Fprintln(stderr, "tagspin-benchmark: -compare wants parent,change")
			return 2
		}
		return runCompare(dirs[0], dirs[1], *name, *seed, *seconds, stdout, stderr)
	}
	if *name == "all" || *repeat > 1 {
		return runChildren(*name, *seed, *seconds, *trace == 1, *repeat, *out, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "tagspin-benchmark: unknown workload %q (want %s)\n", *name, names())
		return 2
	}
	rep, err := run(w, runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		warmup: 3 * time.Second, coldStarts: coldStarts, setupFor: setupFor, spans: *spans,
	})
	if err != nil {
		fmt.Fprintln(stderr, "tagspin-benchmark:", err)
		return 1
	}
	rep.print(stdout)
	res := rep.result(*trace == 1)
	if err := emit(res, *out, stdout); err != nil {
		fmt.Fprintln(stderr, "tagspin-benchmark:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// emit prints the result as the last line of stdout, and to path if set.
func emit(res any, path string, stdout io.Writer) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	if path == "" {
		return nil
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func names() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// selected expands a -workload value.
func selected(name string) ([]string, error) {
	if name == "all" {
		return strings.Split(names(), ", "), nil
	}
	if _, ok := findWorkload(name); !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", name, names())
	}
	return []string{name}, nil
}

// quartiles returns the first quartile, median and third quartile, with the
// exclusive method of Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k of 4 quartile cut points
		m := float64(n+1) * float64(k) / 4
		j := int(m)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
