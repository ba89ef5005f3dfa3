// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three federation workloads through the program's own entry
// points (fl.Sim, flnet.Server, flnet.TreeServer), checks the outputs,
// and prints every metric by name with its unit and sample count. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with the
// cores unwrapped apart from a thin round observer. With --trace 1 the
// run pairs every federation with a traced twin at the same seed —
// timing wrappers around the cores, the program's telemetry set on, an
// nn probe and a comm decode replay — and prints the per-layer metrics;
// the spans are written to .bench_build/trace/ at exit.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload spatl-sim --seed 1 --seconds 30 --trace 0
//
// WORKLOADS.md documents each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// benchProcs pins GOMAXPROCS so accuracies are comparable across hosts:
// until the conv gradient reduction is made independent of GOMAXPROCS,
// the trained models depend on it.
const benchProcs = 2

func main() {
	workload := flag.String("workload", "", "spatl-sim | fedavg-vgg11-tcp | ingest-tree | all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs)

	names := []string{*workload}
	if *workload == "all" {
		names = []string{"spatl-sim", "fedavg-vgg11-tcp", "ingest-tree"}
	}
	ok := true
	for _, name := range names {
		w, found := workloads[name]
		if !found {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
			os.Exit(2)
		}
		res, err := run(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.print(w.name, *seed, *trace == 1)
		ok = ok && res.correct
	}
	if !ok {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	n     int  // samples behind the value
	info  bool // printed in the table only, not in the JSON result
}

// result is one run's outcome.
type result struct {
	correct   bool
	problems  []string
	attempted int64
	failed    int64
	metrics   []metric
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

// addInfo records a value for the table that BENCHMARK.json does not
// gate.
func (r *result) addInfo(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n, info: true})
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// print writes the run record, a human-readable table and, last, the
// JSON result line.
func (r *result) print(workload string, seed int64, traced bool) {
	host, _ := os.Hostname()
	fmt.Printf("record: workload=%s seed=%d gomaxprocs=%d go=%s cpu=%q host=%s trace=%t\n",
		workload, seed, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), host, traced)
	for _, p := range r.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	fmt.Printf("attempted uploads %d, failed %d (failed_frac %.4g)\n",
		r.attempted, r.failed, float64(r.failed)/math.Max(1, float64(r.attempted)))
	out := map[string]map[string]any{}
	for _, m := range r.metrics {
		fmt.Printf("%-34s %16.6g %-8s n=%d\n", m.name, m.value, m.unit, m.n)
		if m.info {
			continue
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.fail("metric %s is %v", m.name, m.value)
			m.value = 0
		}
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" when
// unavailable).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
