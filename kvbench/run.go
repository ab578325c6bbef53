package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"lsasg"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names and units (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, as a user of the daemon
// sees them.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p99_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"server_rss_mb", "MiB", "lower"},
	{"route_distance_mean", "hops", "lower"},
	{"transform_rounds_per_op", "rounds", "lower"},
	{"dummy_nodes", "nodes", "lower"},
	{"height", "levels", "lower"},
}

// perLayer are the metrics of a traced run. Times and counts are means per
// timed op unless the unit says otherwise.
var perLayer = []metricDef{
	{"wire.codec_us", "us", "lower"},
	{"wire.frame_bytes", "bytes", "lower"},
	{"wire.boundary_us", "us", "lower"},
	{"service.op_us", "us", "lower"},
	{"serve.read_us", "us", "lower"},
	{"skipgraph.route_us", "us", "lower"},
	{"skipgraph.route_hops", "hops", "lower"},
	{"skipgraph.publish_us", "us", "lower"},
	{"skipgraph.publish_allocs", "allocs", "lower"},
	{"core.apply_us", "us", "lower"},
	{"core.apply_allocs", "allocs", "lower"},
	{"core.apply_kib", "KiB", "lower"},
	{"core.transform_rounds", "rounds", "lower"},
	{"core.repair_inserted", "nodes", "lower"},
	{"core.repair_removed", "nodes", "lower"},
	{"workingset.add_us", "us", "lower"},
	{"shard.op_us", "us", "lower"},
	{"shard.cross_shard_ops", "ops", "lower"},
	{"shard.rebalances", "count", "lower"},
	{"shard.migrated_keys", "keys", "lower"},
	{"runtime.gc_cycles_per_kop", "cycles/kop", "lower"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("kvbench: undeclared metric " + name)
}

// runConfig is one invocation's settings.
type runConfig struct {
	bin     string
	spec    spec
	seconds int
	traced  bool
}

// wireRun is the outcome of driving one workload over the wire.
type wireRun struct {
	attempted, failed int64
	errs              []string
	reborn            int // see oracle.reborn

	setupSecs        []float64       // per set-up: launch and load
	lat              []time.Duration // every timed op, all sessions
	wall             time.Duration   // timed phases, Stats samples excluded
	rss              []float64       // per session: the daemon's peak RSS
	dummies, heights []float64       // topology samples, all sessions
	requests         int64           // ops served, all sessions
	distance         float64         // Σ route distance, all sessions
	rounds           int64           // Σ transform rounds, all sessions

	// The first session's stream and outcome, which the traced run replays.
	setupOps, timed []lsasg.Op
	cuts            []int // op counts after which a Stats call cycled the generation
	final           lsasg.Stats
}

// setups is how many set-ups a run times for setup_s: one per session, then
// set-up-only daemons. A set-up takes milliseconds, so the median is taken
// over enough of them to ride out the box's drift.
const setups = 21

// subSeed derives session r's stream seed from the run's seed.
func subSeed(seed int64, r int) int64 { return seed<<8 | int64(r) }

// setUp launches a daemon and drives it through the set-up phase (launch,
// load), timing it.
func (w *wireRun) setUp(cfg runConfig, setupOps []lsasg.Op) (*session, error) {
	t0 := time.Now()
	ss, err := dial(cfg.bin, cfg.spec)
	if err != nil {
		return nil, err
	}
	for _, op := range setupOps {
		ss.do(op)
	}
	w.setupSecs = append(w.setupSecs, time.Since(t0).Seconds())
	w.attempted += int64(len(setupOps))
	return ss, nil
}

// absorb folds a finished session's failures into the run.
func (w *wireRun) absorb(ss *session) {
	w.failed += ss.failed
	w.errs = append(w.errs, ss.errs...)
	w.reborn += ss.o.reborn
}

// driveWire runs the workload's sessions one after another. Each session is
// a fresh daemon driven through the set-up phase and then its share of the
// timed ops. Set-up-only daemons follow until the run has timed
// setups set-ups. The traced run drives the first session only.
func driveWire(cfg runConfig, seed int64) (*wireRun, error) {
	w := &wireRun{}
	per := cfg.seconds * cfg.spec.opsPerSecond / cfg.spec.sessions
	sessions, nSetups := cfg.spec.sessions, setups
	if cfg.traced {
		sessions, nSetups = 1, 1
	}
	for r := 0; r < sessions; r++ {
		setupOps, timed := cfg.spec.stream(subSeed(seed, r), per)
		ss, err := w.setUp(cfg, setupOps)
		if err != nil {
			return nil, err
		}
		var cuts []int
		var wall time.Duration
		lat := make([]time.Duration, len(timed))
		t0 := time.Now()
		for i, op := range timed {
			lat[i] = ss.do(op)
			if k := cfg.spec.sampleEvery; k > 0 && (i+1)%k == 0 && i+1 < len(timed) {
				wall += time.Since(t0)
				if _, err := ss.stats(); err != nil {
					ss.d.kill()
					return nil, err
				}
				cuts = append(cuts, len(setupOps)+i+1)
				t0 = time.Now()
			}
		}
		wall += time.Since(t0)
		w.wall += wall
		cum, rss, err := ss.finish()
		if err != nil {
			return nil, err
		}
		if want := len(setupOps) + len(timed); cum.Requests != want {
			ss.fail("daemon served %d requests, sent %d", cum.Requests, want)
		}
		w.attempted += int64(len(timed))
		w.absorb(ss)
		w.lat = append(w.lat, lat...)
		w.rss = append(w.rss, rss)
		w.dummies = append(w.dummies, ss.dummies...)
		w.heights = append(w.heights, ss.heights...)
		w.requests += int64(cum.Requests)
		w.distance += cum.MeanRouteDistance * float64(cum.Requests)
		w.rounds += cum.TotalTransformRounds
		if r == 0 {
			w.setupOps, w.timed, w.cuts, w.final = setupOps, timed, cuts, cum
		}
	}
	for r := sessions; r < nSetups; r++ {
		setupOps, _ := cfg.spec.stream(subSeed(seed, r), 0)
		ss, err := w.setUp(cfg, setupOps)
		if err != nil {
			return nil, err
		}
		if _, _, err := ss.finish(); err != nil {
			return nil, err
		}
		w.absorb(ss)
	}
	return w, nil
}

// run performs one benchmark invocation.
func run(cfg runConfig, seed int64) (result, error) {
	w, err := driveWire(cfg, seed)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("set-up seconds %.3f; %d timed ops in %.3f s; %d re-created keys restarted below their old version\n",
		w.setupSecs, len(w.lat), w.wall.Seconds(), w.reborn)
	sorted := sortedCopy(w.lat)
	fmt.Printf("round trip ms: p10 %.3f  p25 %.3f  p50 %.3f  p75 %.3f  p90 %.3f  p99 %.3f  max %.3f\n",
		ms(quantile(sorted, 0.10)), ms(quantile(sorted, 0.25)), ms(quantile(sorted, 0.50)), ms(quantile(sorted, 0.75)),
		ms(quantile(sorted, 0.90)), ms(quantile(sorted, 0.99)), ms(sorted[len(sorted)-1]))
	res := result{Correct: true, Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metric{}}
	if !cfg.traced {
		for name, v := range endToEndValues(w) {
			res.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)}
		}
	} else {
		layers, bad, err := traceReplay(cfg.spec, w)
		if err != nil {
			return result{}, err
		}
		for name, v := range layers {
			res.Metrics[name] = metric{Value: v, Unit: unitOf(perLayer, name)}
		}
		rows, svc := rowsUs(layers), layers["service.op_us"]
		fmt.Printf("layer rows sum %.1f us = %.0f%% of service.op_us %.1f us (the rest is the pipeline's hand-offs); service.op_us + wire.boundary_us = %.1f us = e2e mean %.1f us\n",
			rows, 100*rows/svc, svc, svc+layers["wire.boundary_us"], meanUs(w.lat))
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "kvbench: inconsistent:", b)
		}
		res.Correct = len(bad) == 0
	}
	for _, e := range w.errs {
		fmt.Fprintln(os.Stderr, "kvbench: mismatch:", e)
	}
	return res, nil
}

// endToEndValues folds a run into its end-to-end metrics. The timings pool
// every timed op of every session: the box's speed drifts over seconds, so
// the whole timed phase averages over more of that drift than any one
// session does.
func endToEndValues(w *wireRun) map[string]float64 {
	sorted := sortedCopy(w.lat)
	return map[string]float64{
		"throughput_ops_s":        float64(len(w.lat)) / w.wall.Seconds(),
		"lat_p50_ms":              ms(quantile(sorted, 0.50)),
		"lat_p99_ms":              ms(quantile(sorted, 0.99)),
		"setup_s":                 median(w.setupSecs),
		"server_rss_mb":           median(w.rss),
		"route_distance_mean":     w.distance / float64(w.requests),
		"transform_rounds_per_op": float64(w.rounds) / float64(w.requests),
		"dummy_nodes":             mean(w.dummies),
		"height":                  mean(w.heights),
	}
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(sorted)) + 0.999999)
	if i < 1 {
		i = 1
	}
	return sorted[i-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// steadiness runs the workload k times back to back, one seed each, and
// prints each metric's median and quartiles with the spread (Q3−Q1)/median.
func steadiness(out *os.File, cfg runConfig, seed int64, k int) error {
	vals := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		res, err := run(cfg, seed+int64(i))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "run %d seed %d: attempted %d failed %d\n", i+1, seed+int64(i), res.Attempted, res.Failed)
		for n, m := range res.Metrics {
			vals[n] = append(vals[n], m.Value)
			units[n] = m.Unit
		}
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-28s %12s %12s %12s %8s  unit  runs\n", "metric", "q1", "median", "q3", "spread")
	for _, n := range names {
		q1, q2, q3 := quartiles(vals[n])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(out, "%-28s %12.4f %12.4f %12.4f %7.2f%%  %s  %.4g\n", n, q1, q2, q3, 100*spread, units[n], vals[n])
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is how the spread of a set of runs is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
