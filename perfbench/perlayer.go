package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"spatl/internal/telemetry"
)

// perLayer computes the traced run's per-layer metrics from the traced
// federations' spans and counters, the untraced twins, the nn probe and
// the decode replay. Every workload reports every metric; a layer the
// workload does not exercise reads 0.
func perLayer(res *result, w *workload, seed int64, plain, tr []*fedRun) {
	var self, phase, idle, lu, luSpread, bcast, fin, wire, rootWait []float64
	var collectS, frameMax, upBytes, downBytes float64
	var uploads, selected, rounds int
	var dropped, peakStaged, drops, errs int64
	var gc, cpu, allocs float64
	var heapPeak uint64
	for _, f := range tr {
		byRound := map[int][]span{}
		for _, s := range f.spans {
			byRound[s.Round] = append(byRound[s.Round], s)
		}
		for ri, r := range f.agg.rounds {
			spans := byRound[ri]
			self = append(self, float64(r.End-r.Start-covered(spans, r.Start, r.End))/1e9)
			collectBy := map[int]span{}
			var upd []span
			for _, s := range spans {
				switch s.Name {
				case "agg.broadcast":
					bcast = append(bcast, s.seconds())
				case "agg.finish":
					fin = append(fin, s.seconds())
				case "agg.collect":
					collectS += s.seconds()
					collectBy[s.Client] = s
				case "client.update":
					upd = append(upd, s)
				}
			}
			if len(upd) > 0 {
				lo, hi, busy, most := upd[0].Start, upd[0].End, 0.0, 0.0
				for _, u := range upd {
					lo, hi = min(lo, u.Start), max(hi, u.End)
					busy += u.seconds()
					most = max(most, u.seconds())
					lu = append(lu, u.seconds())
					if c, ok := collectBy[u.Client]; ok && w.overTCP {
						wire = append(wire, float64(c.Start-r.BcastEnd-(u.End-u.Start))/1e9)
					}
				}
				wall := float64(hi-lo) / 1e9
				phase = append(phase, wall)
				idle = append(idle, 1-busy/(wall*float64(min(benchProcs, len(upd)))))
				luSpread = append(luSpread, most/(busy/float64(len(upd))))
			}
			if w.overTCP && r.FirstCollect > 0 {
				rootWait = append(rootWait, float64(r.FirstCollect-r.BcastEnd)/1e9)
			}
			if w.overTCP {
				frameMax = max(frameMax, float64(r.MaxFrame))
			}
			uploads += r.Uploads
			selected += r.Selected
			upBytes += float64(r.UpBytes)
			downBytes += float64(r.BcastBytes) * float64(r.Selected)
			rounds++
		}
		dropped += f.agg.Dropped()
		snap := f.reg.Snapshot()
		peakStaged = max(peakStaged, snap.Counters["agg.peak_staged"])
		drops += snap.Counters["flnet.drops"]
		errs += snap.Counters["flnet.errors"]
		gc += f.rt1.gcCPU - f.rt0.gcCPU
		cpu += f.rt1.allCPU - f.rt0.allCPU
		allocs += f.rt1.allocs - f.rt0.allocs
		heapPeak = max(heapPeak, f.heapPeak)
	}
	var evalS, build, pretrain []float64
	for _, f := range plain {
		// The untraced twin ran first, so its set-up paid for the agent
		// pre-training the traced twin then found cached.
		evalS = append(evalS, f.evalS...)
		build = append(build, f.buildS)
		pretrain = append(pretrain, f.pretrainS)
	}
	n := len(tr)
	res.add("fl.round_self_s", median(self), "s", len(self))
	res.add("fl.train_phase_s", median(phase), "s", len(phase))
	res.add("fl.lane_idle_frac", median(idle), "frac", len(idle))
	res.add("fl.eval_s", median(evalS), "s", len(evalS))
	res.add("algo.local_update_s", median(lu), "s", len(lu))
	res.add("algo.local_update_max_over_mean", median(luSpread), "ratio", len(luSpread))
	res.add("algo.broadcast_s", median(bcast), "s", len(bcast))
	res.add("algo.collect_s", collectS/float64(max(1, uploads)), "s", uploads)
	res.add("algo.finish_s", median(fin), "s", len(fin))
	for _, sp := range []struct{ metric, span string }{
		{"algo.train_s", "client.train"}, {"algo.select_s", "client.select"},
		{"algo.fold_s", "agg.fold"}, {"algo.reduce_s", "agg.reduce"},
	} {
		mean, count := spanMean(tr, sp.span)
		res.add(sp.metric, mean, "s", count)
	}
	res.add("algo.dropped", float64(dropped), "count", n)
	res.add("algo.peak_staged", float64(peakStaged), "count", n)

	var p probeResult
	epochs := 0
	if w.probe != nil {
		p, epochs = w.probe(subSeed(w, seed, 0)), probeEpochs
	}
	total := p.loss + p.opt
	for _, k := range layerKinds {
		total += p.fwd[k] + p.bwd[k]
	}
	for _, k := range layerKinds {
		res.add("nn.fwd_s."+k, p.fwd[k], "s", epochs)
	}
	for _, k := range layerKinds {
		res.add("nn.bwd_s."+k, p.bwd[k], "s", epochs)
	}
	for _, k := range layerKinds {
		// Backward is counted as twice the forward work.
		gf := 0.0
		if t := p.fwd[k] + p.bwd[k]; t > 0 {
			gf = 3 * p.flops[k] / t / 1e9
		}
		res.add("nn.gflops."+k, gf, "GFLOP/s", epochs)
	}
	for _, k := range layerKinds {
		share := 0.0
		if total > 0 {
			share = (p.fwd[k] + p.bwd[k]) / total
		}
		res.add("nn.share."+k, share, "frac", epochs)
	}
	res.add("nn.loss_s", p.loss, "s", epochs)
	res.add("nn.opt_s", p.opt, "s", epochs)

	res.add("rl.pretrain_s", median(pretrain), "s", len(pretrain))
	res.add("data.build_env_s", median(build), "s", len(build))
	res.add("comm.up_bytes_per_upload", upBytes/float64(max(1, uploads)), "B", uploads)
	res.add("comm.down_bytes_per_client", downBytes/float64(max(1, selected)), "B", selected)
	dec, err := decodeSecondsPerMB(w.decode, tr[0].agg.captured)
	if err != nil {
		res.fail("decode replay: %v", err)
	}
	res.add("comm.decode_s_per_mb", dec, "s/MB", len(tr[0].agg.captured))
	res.add("flnet.wire_s", median(wire), "s", len(wire))
	res.add("flnet.root_wait_s", median(rootWait), "s", len(rootWait))
	res.add("flnet.frame_bytes_max", frameMax, "B", rounds)
	res.add("flnet.drops", float64(drops), "count", n)
	res.add("flnet.errors", float64(errs), "count", n)

	plainRounds := roundSeconds(pooledRounds(plain))
	traced := roundSeconds(pooledRounds(tr))
	res.add("telemetry.overhead_frac", median(traced)/median(plainRounds)-1, "frac", len(traced))
	res.add("go.gc_cpu_frac", gc/cpu, "frac", n)
	res.add("go.alloc_bytes_per_round", allocs/float64(max(1, rounds)), "B", rounds)
	res.add("go.heap_peak_mb", float64(heapPeak)/(1<<20), "MB", rounds)
}

// covered returns how much of [lo, hi] the union of spans covers.
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// spanMean reads the program's own span histogram "span.<name>.ns" from
// every traced federation's registries and returns the mean duration in
// seconds and the sample count.
func spanMean(runs []*fedRun, name string) (float64, int) {
	var sum, count int64
	for _, f := range runs {
		for _, reg := range []*telemetry.Registry{f.reg, f.creg} {
			if h, ok := reg.Snapshot().Histograms["span."+name+".ns"]; ok {
				sum += h.Sum
				count += h.Count
			}
		}
	}
	if count == 0 {
		return 0, 0
	}
	return float64(sum) / float64(count) / 1e9, int(count)
}

// traceEvent is one Chrome trace-event record ("X": a complete event,
// microsecond timestamps); the file opens in Perfetto.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeSpans writes the traced federations' spans to
// .bench_build/trace/<workload>-seed<seed>.json, one process per
// federation and one thread per client (thread 0 is the server).
func writeSpans(workload string, seed int64, runs []*fedRun) error {
	var events []traceEvent
	for i, f := range runs {
		for _, s := range f.spans {
			events = append(events, traceEvent{
				Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				PID: i + 1, TID: s.Client + 1, Args: map[string]int{"round": s.Round, "n": s.N},
			})
		}
		for ri, r := range f.agg.rounds {
			events = append(events, traceEvent{
				Name: "round", Ph: "X", TS: float64(r.Start) / 1e3, Dur: float64(r.End-r.Start) / 1e3,
				PID: i + 1, TID: 0, Args: map[string]int{"round": ri},
			})
		}
	}
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return os.WriteFile(path, b, 0o644)
}
