// Command bench is the repository's benchmark: four workloads through the
// real serving stack, end-to-end metrics measured in interleaved
// fixed-op-count rounds guarded by a reference kernel, every returned value
// verified, and (with -trace 1) per-layer metrics from spans recorded around
// the calls into each layer. See README.md in this directory.
//
// It is a module of its own (go.mod beside this file, replacing the
// freecursive module with the directory above). Run from the repository root:
//
//	go run -C bench .                                  # all four workloads, interleaved
//	go run -C bench . -workload inproc-path-uniform    # one; last line is the driver's JSON
//	go run -C bench . -trace 1                         # per-layer metrics + span files
//	go run -C bench . -agree 2                         # two sets, gaps checked against BENCHMARK.json
//	go run -C bench . -smoke                           # ~1 s per workload, all checks on
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported number. Sum is present for metrics computed per
// round (median/min/max/n over rounds); Value is always what is gated.
type metric struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Value float64  `json:"value"`
	Sum   *summary `json:"rounds,omitempty"`
}

// result is one workload's outcome in one set.
type result struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
}

func (r *result) get(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

type options struct {
	workloads []*workload
	seed      uint64
	seconds   float64 // measured time per workload
	minRounds int     // kept rounds every workload needs before the time box may end the run
	setups    int     // timed set-ups per workload; setup_s is their median
	outDir    string
	smoke     bool
}

// defaultOptions are a full run's; smokeOptions shrink it to about a second
// per workload (the workloads themselves are shrunk by smokeScale).
func defaultOptions() options {
	return options{workloads: workloads, seed: 1, seconds: 20, minRounds: 5, setups: 5, outDir: filepath.Join("bench", "out")}
}

func smokeOptions(o options) options {
	o.smoke, o.seconds, o.minRounds, o.setups = true, 0.5, 2, 1
	return o
}

// enterRoot makes the repository root the working directory: `go run -C
// bench` and `go test` start in bench/, and every path below (BENCHMARK.json,
// bench/out) is relative to the root.
func enterRoot() error {
	if _, err := os.Stat(specPath); err == nil {
		return nil
	}
	if _, err := os.Stat(filepath.Join("..", specPath)); err != nil {
		return fmt.Errorf("%s is neither here nor in the directory above; run from the repository root", specPath)
	}
	return os.Chdir("..")
}

func main() {
	o := defaultOptions()
	var (
		name  = flag.String("workload", "", "run only this workload (default: all four, rounds interleaved)")
		trace = flag.Int("trace", 0, "1: traced run, prints per-layer metrics and writes span files")
		agree = flag.Int("agree", 0, "run the benchmark this many times and check the sets agree within BENCHMARK.json's bounds")
		smoke = flag.Bool("smoke", false, "tiny rounds (~1 s per workload), all checks on")
	)
	flag.Uint64Var(&o.seed, "seed", o.seed, "op-stream seed (default 1; hold-out seed 2)")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "measured time per workload")
	flag.Parse()
	if err := enterRoot(); err != nil {
		fatal(err)
	}
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		o.workloads = []*workload{w}
	}
	if *smoke {
		o = smokeOptions(o)
	}

	var (
		results []*result
		err     error
	)
	switch {
	case *agree > 0:
		err = runAgree(o, *agree)
	case *trace != 0:
		results, err = runTraced(o)
	default:
		results, err = runSet(o)
	}
	if err != nil {
		fatal(err)
	}
	failed := 0
	for _, r := range results {
		printResult(r)
		failed += r.Failed
	}
	if len(results) == 1 {
		printDriverLine(results[0], *trace != 0)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d failed ops\n", failed)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// smokeScale shrinks a workload to about a second of work; a tenth of the
// RTT keeps the remote one inside that.
func smokeScale(w *workload) *workload {
	c := *w
	c.rtt = w.rtt / 10
	c.roundOps = max(w.roundOps/8, 2*w.batch*w.clients)
	c.prefill = min(w.prefill, 2048)
	if c.snapshotEvery > 0 {
		c.snapshotEvery = c.roundOps / 2
	}
	return &c
}

// runSet is one full untraced benchmark set: set up every workload, run
// their rounds interleaved, verify, tear down.
func runSet(o options) ([]*result, error) {
	k := newRefKernel(o.smoke)
	var ms []*measurement
	defer func() {
		for _, m := range ms {
			if m.s != nil {
				m.s.close()
			}
		}
	}()
	for _, w := range o.workloads {
		if o.smoke {
			w = smokeScale(w)
		}
		m, err := setup(w, o.seed, o.setups, filepath.Join(o.outDir, "tmp"), nil)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	measure(ms, k, o.seconds, o.minRounds)
	var results []*result
	for _, m := range ms {
		if err := m.finish(); err != nil {
			return nil, err
		}
		r := m.result()
		r.Metrics = append(r.Metrics,
			metric{Name: "harness.ref_kernel_ns", Unit: "ns", Value: summarize(k.all).Median},
			metric{Name: "harness.rounds_discarded", Unit: "count", Value: float64(m.discarded)})
		results = append(results, r)
	}
	return results, nil
}

// finish runs the restart read-back (durable workloads) and tears the
// stack down.
func (m *measurement) finish() error {
	if m.w.durable {
		n, bad, err := m.s.reopenAndVerify(m.cs)
		if err != nil {
			return fmt.Errorf("%s: restart read-back: %w", m.w.name, err)
		}
		m.attempted += n
		m.failed += bad
	}
	err := m.s.close()
	m.s, m.cs = nil, nil
	return err
}

// result folds the kept rounds into the end-to-end metrics: every timing
// is computed per round and reported as the median over rounds.
func (m *measurement) result() *result {
	var tput, p50, p90, p99, cpu []float64
	var ops int
	var bytesMoved uint64
	for _, r := range m.rounds {
		n := float64(r.ops)
		tput = append(tput, n/r.wall.Seconds())
		p50 = append(p50, r.lat.quantile(0.50)/1e3)
		p90 = append(p90, r.lat.quantile(0.90)/1e3)
		p99 = append(p99, r.lat.quantile(0.99)/1e3)
		cpu = append(cpu, r.cpu.Seconds()*1e6/n)
		ops += r.ops
		bytesMoved += r.bytesMoved
	}
	perRound := func(name, unit string, v []float64) metric {
		s := summarize(v)
		return metric{Name: name, Unit: unit, Value: s.Median, Sum: &s}
	}
	setups := summarize(m.setups)
	return &result{
		Workload:  m.w.name,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics: []metric{
			perRound("throughput_ops_s", "1/s", tput),
			perRound("latency_p50_us", "us", p50),
			perRound("latency_p90_us", "us", p90),
			{Name: "bytes_moved_per_op", Unit: "bytes", Value: float64(bytesMoved) / float64(ops)},
			{Name: "live_heap_mb", Unit: "MiB", Value: m.heapMB},
			{Name: "setup_s", Unit: "s", Value: setups.Median, Sum: &setups},
			{Name: "failed_op_share", Unit: "ratio", Value: float64(m.failed) / float64(m.attempted)},
			perRound("harness.latency_p99_us", "us", p99),
			perRound("harness.cpu_us_per_op", "us", cpu),
		},
	}
}

func printResult(r *result) {
	fmt.Printf("\n%s  (attempted %d, failed %d)\n", r.Workload, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		if m.Sum != nil {
			fmt.Printf("  %-34s %14.4f %-6s (min %.4f, max %.4f, n=%d)\n", m.Name, m.Value, m.Unit, m.Sum.Min, m.Sum.Max, m.Sum.N)
		} else {
			fmt.Printf("  %-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the harness reads back: which
// metrics the driver expects on its result line, and their bounds.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Bound float64 `json:"bound"`
}

const specPath = "BENCHMARK.json" // relative to the repository root, where the benchmark runs

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMetrics picks exactly the listed metrics out of r, failing if one
// is missing: the driver refuses a result line that lacks a metric.
func driverMetrics(r *result, want []specMetric) (map[string]driverValue, error) {
	have := map[string]metric{}
	for _, m := range r.Metrics {
		have[m.Name] = m
	}
	out := map[string]driverValue{}
	for _, s := range want {
		m, ok := have[s.Name]
		if !ok {
			return nil, fmt.Errorf("%s: result lacks %s, which BENCHMARK.json lists", r.Workload, s.Name)
		}
		out[s.Name] = driverValue{m.Value, m.Unit}
	}
	return out, nil
}

// printDriverLine prints the driver's result object as the last line of
// standard output: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func printDriverLine(r *result, traced bool) {
	spec, err := readSpec(specPath)
	if err != nil {
		fatal(err)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	metrics, err := driverMetrics(r, want)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]driverValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s\n", line)
}

// --- agreement -----------------------------------------------------------------

// runAgree runs n full sets back to back and prints, for every workload x
// end-to-end metric, each set's value and the gap between them against the
// metric's bound. It fails if a gap exceeds its bound. Only a passing run of
// the whole default benchmark (every workload, default seed and seconds, not
// smoke) rewrites bench/baseline.json, with its first set; the committed
// out/AGREEMENT.md is this command's standard output.
func runAgree(o options, n int) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	sets := make([][]*result, n)
	for i := range sets {
		fmt.Fprintf(os.Stderr, "bench: set %d of %d\n", i+1, n)
		if sets[i], err = runSet(o); err != nil {
			return err
		}
		for _, r := range sets[i] {
			if r.Failed > 0 {
				return fmt.Errorf("%s: %d failed ops", r.Workload, r.Failed)
			}
		}
	}
	fmt.Printf("## Agreement of %d sets of runs of the same code (seed %d, %g s per workload)\n\n", n, o.seed, o.seconds)
	fmt.Print("gap = (max - min) / min over the sets' values; it must stay within the metric's bound.\n\n")
	fmt.Print("| workload | metric |")
	for i := range sets {
		fmt.Printf(" set %d |", i+1)
	}
	fmt.Print(" gap | bound | ok |\n|---|---|" + strings.Repeat("---|", n+3) + "\n")
	bad := 0
	for wi, r0 := range sets[0] {
		for _, e := range spec.EndToEnd {
			vals := make([]float64, n)
			for i := range sets {
				vals[i] = sets[i][wi].get(e.Name)
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			gap := (sorted[n-1] - sorted[0]) / sorted[0]
			ok := "yes"
			if !(gap <= e.Bound) {
				ok = "NO"
				bad++
			}
			fmt.Printf("| %s | %s |", r0.Workload, e.Name)
			for _, v := range vals {
				fmt.Printf(" %.4g |", v)
			}
			fmt.Printf(" %.2f%% | %.0f%% | %s |\n", 100*gap, 100*e.Bound, ok)
		}
	}
	fmt.Println()
	if bad > 0 {
		return fmt.Errorf("%d workload x metric pairs disagree by more than their bound", bad)
	}
	d := defaultOptions()
	if o.smoke || len(o.workloads) != len(d.workloads) || o.seed != d.seed || o.seconds != d.seconds {
		return nil
	}
	base, err := json.MarshalIndent(sets[0], "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(filepath.Dir(o.outDir), "baseline.json"), append(base, '\n'), 0o644)
}
