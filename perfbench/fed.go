package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"spatl/internal/algo"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/scenario"
	"spatl/internal/telemetry"
)

// workload is one benchmark workload: a federation the run repeats on
// several seeds derived from --seed.
type workload struct {
	name string
	// fedSeconds is the nominal wall time of one federation including
	// its set-up, taken on a 2-vCPU Xeon host in a slow period; a run
	// holds seconds/fedSeconds federations, so the amount of work is a
	// function of --seconds alone.
	fedSeconds float64
	// fed runs one federation at a derived seed.
	fed func(sub int64, traced bool) (*fedRun, error)
	// probe replays one local epoch layer by layer (nil: no local
	// training in this workload).
	probe func(sub int64) probeResult
	// decode replays one captured upload through the comm decoders.
	decode func(payload []byte) error
	// overTCP marks workloads whose uploads cross real sockets.
	overTCP bool
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

// fedRun is one federation's outcome as the wrappers and the
// transport's own counters saw it.
type fedRun struct {
	sub    int64
	traced bool
	agg    *timedAgg

	setupS, buildS, pretrainS float64

	evalS    []float64 // per-round evaluation seconds
	reached  int       // 1-based round that reached the target; 0 if never
	toTarget float64   // seconds from the first broadcast to that evaluation
	finalAcc float64
	digest   uint64 // FNV-64a of the final global state
	epochs   int    // local epochs each collected upload represents

	attempted, failed int64
	problems          []string

	// Traced runs only.
	spans    []span
	reg      *telemetry.Registry // server side
	creg     *telemetry.Registry // client side (TCP clients own their set)
	heapPeak uint64
	rt0, rt1 rtSample
}

func (f *fedRun) problem(format string, args ...any) {
	f.problems = append(f.problems, fmt.Sprintf("seed %d: ", f.sub)+fmt.Sprintf(format, args...))
}

// checkBytes compares the wrapper's byte counts with the program's own
// meter: up is every collected upload, down every round broadcast to
// each selected client plus the final model to each of finalTo clients.
func (f *fedRun) checkBytes(progUp, progDown int64, finalTo int) {
	var up, down int64
	for _, r := range f.agg.rounds {
		up += r.UpBytes
		down += r.BcastBytes * int64(r.Selected)
	}
	down += f.agg.finalBytes * int64(finalTo)
	if up != progUp {
		f.problem("uplink bytes %d, program counted %d", up, progUp)
	}
	if down != progDown {
		f.problem("downlink bytes %d, program counted %d", down, progDown)
	}
}

// requireTarget counts a federation that never reached its target as a
// failed outcome and a failed check.
func (f *fedRun) requireTarget(target float64) {
	if f.reached == 0 {
		f.failed++
		f.problem("target %.2f never reached (final %.4f)", target, f.finalAcc)
	}
}

// countUploads counts every selected upload as attempted.
func (f *fedRun) countUploads() {
	for _, r := range f.agg.rounds {
		f.attempted += int64(r.Selected)
	}
}

// newTel returns the telemetry set a federation runs with: traced runs
// enable the program's full set (registry, tracer, journal); untraced
// runs keep only the registry, so the counters the program already
// keeps stay readable.
func newTel(traced bool) *telemetry.Set {
	if traced {
		return telemetry.New(io.Discard)
	}
	return &telemetry.Set{Reg: telemetry.NewRegistry()}
}

// reseed points a freshly built environment's federation randomness —
// local batch order, agent RNGs, client sampling — at the derived seed.
// The task itself (dataset, partition, initial model) is fixed by the
// workload spec, like a benchmark dataset.
func reseed(env *fl.Env, sub int64) {
	env.Cfg.Seed = sub
	env.Rng = rand.New(rand.NewSource(sub))
}

// tracker evaluates a training federation after every round.
type tracker struct {
	f       *fedRun
	clients []*algo.Client
	model   func(c *algo.Client) *models.SplitModel
	target  float64
}

func (t *tracker) eval(round int) {
	a := t.f.agg
	t0 := a.clock.now()
	var sum float64
	for _, c := range t.clients {
		acc := fl.EvalAccuracy(t.model(c), c.Val, 64)
		if math.IsNaN(acc) {
			acc = 0
		}
		sum += acc
	}
	t1 := a.clock.now()
	acc := sum / float64(len(t.clients))
	t.f.evalS = append(t.f.evalS, float64(t1-t0)/1e9)
	t.f.finalAcc = acc
	if t.f.reached == 0 && acc >= t.target {
		t.f.reached = round + 1
		t.f.toTarget = float64(t1-a.rounds[0].Start) / 1e9
	}
	t.f.sampleHeap()
}

// sampleHeap records the live heap high-water mark in traced runs.
func (f *fedRun) sampleHeap() {
	if !f.traced {
		return
	}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	f.heapPeak = max(f.heapPeak, s[0].Value.Uint64())
}

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	gcCPU, allCPU, allocs float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return rtSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// digestState is the FNV-64a digest of a model's full state.
func digestState(m *models.SplitModel) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range m.State(models.ScopeAll) {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// subSeed derives the seed of a run's k-th federation.
func subSeed(w *workload, seed int64, k int) int64 {
	return scenario.DeriveSeed(seed, w.name+"/"+strconv.Itoa(k))
}

// runFed runs one federation after collecting the previous one's garbage,
// so every federation starts from the same heap state and the process
// peak stays that of one federation.
func (w *workload) runFed(sub int64, traced bool) (*fedRun, error) {
	runtime.GC()
	return w.fed(sub, traced)
}

// run executes one benchmark run of w.
func run(w *workload, seed int64, seconds int, traced bool) (*result, error) {
	n := max(1, int(math.Round(float64(seconds)/w.fedSeconds)))
	res := &result{correct: true}
	if !traced {
		var runs []*fedRun
		for k := 0; k < n; k++ {
			f, err := w.runFed(subSeed(w, seed, k), false)
			if err != nil {
				return nil, err
			}
			runs = append(runs, f)
		}
		describe(runs)
		account(res, runs)
		endToEnd(res, runs)
		res.add("peak_rss_mb", peakRSSMB(), "MB", 1)
		return res, nil
	}
	// Traced: each pair runs one seed untraced, then traced.
	pairs := max(1, n/2)
	var plain, tr []*fedRun
	for k := 0; k < pairs; k++ {
		sub := subSeed(w, seed, k)
		u, err := w.runFed(sub, false)
		if err != nil {
			return nil, err
		}
		t, err := w.runFed(sub, true)
		if err != nil {
			return nil, err
		}
		if u.digest != t.digest {
			t.problem("traced final-state digest %016x != untraced %016x", t.digest, u.digest)
		}
		plain, tr = append(plain, u), append(tr, t)
	}
	account(res, append(append([]*fedRun(nil), plain...), tr...))
	perLayer(res, w, seed, plain, tr)
	if err := writeSpans(w.name, seed, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// describe prints each federation's outcome and the pooled round-time
// deciles, for a reader of the run's output.
func describe(runs []*fedRun) {
	for k, f := range runs {
		fmt.Printf("federation %d: seed %d, %d rounds, round p50 %.4fs, target at round %d (%.3fs), final acc %.4f, up %d B/round\n",
			k, f.sub, len(f.agg.rounds), median(roundSeconds(f.agg.rounds)), f.reached, f.toTarget, f.finalAcc,
			f.agg.upBytes()/int64(max(1, len(f.agg.rounds))))
	}
	secs := roundSeconds(pooledRounds(runs))
	fmt.Printf("round seconds by decile:")
	for q := 0; q <= 10; q++ {
		fmt.Printf(" %.4f", quantile(secs, float64(q)/10))
	}
	fmt.Println()
}

// account folds the federations' failure counts and output checks into
// the result.
func account(res *result, runs []*fedRun) {
	for _, f := range runs {
		res.attempted += f.attempted
		res.failed += f.failed
		for _, p := range f.problems {
			res.fail("%s", p)
		}
	}
}

// pooledRounds returns every round of the federations.
func pooledRounds(runs []*fedRun) []roundStat {
	var rs []roundStat
	for _, f := range runs {
		rs = append(rs, f.agg.rounds...)
	}
	return rs
}

func roundSeconds(rs []roundStat) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.seconds()
	}
	return v
}

// endToEnd computes the end-to-end metrics (all but peak_rss_mb).
func endToEnd(res *result, runs []*fedRun) {
	var setup, toTarget, reached, final []float64
	for _, f := range runs {
		setup = append(setup, f.setupS)
		toTarget = append(toTarget, f.toTarget)
		reached = append(reached, float64(f.reached))
		final = append(final, f.finalAcc)
	}
	rs := pooledRounds(runs)
	secs := roundSeconds(rs)
	var total, samples, uploads, up, down float64
	for i, r := range rs {
		total += secs[i]
		uploads += float64(r.Uploads)
		up += float64(r.UpBytes)
		down += float64(r.BcastBytes) * float64(r.Selected)
	}
	for _, f := range runs {
		for _, r := range f.agg.rounds {
			samples += float64(r.Samples) * float64(f.epochs)
		}
	}
	nr := len(rs)
	res.add("setup_s", median(setup), "s", len(setup))
	res.add("time_to_target_s", median(toTarget), "s", len(toTarget))
	res.add("rounds_to_target", mean(reached), "rounds", len(reached))
	res.add("final_acc", mean(final), "frac", len(final))
	res.add("round_s_p50", median(secs), "s", nr)
	// Table only: on spatl-sim about one round in ten is ~50% slower than
	// the rest, so p90 sits on that cliff and swings by more than any
	// bound BENCHMARK.json allows.
	res.addInfo("round_s_p90", quantile(secs, 0.9), "s", nr)
	res.add("train_samples_per_s", samples/total, "1/s", nr)
	res.add("uploads_per_s", uploads/total, "1/s", nr)
	res.add("up_bytes_per_round", up/float64(nr), "B", nr)
	res.add("down_bytes_per_round", down/float64(nr), "B", nr)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
