package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"lsasg"
	"lsasg/internal/core"
	"lsasg/internal/obs"
	"lsasg/internal/serve"
	"lsasg/internal/shard"
	"lsasg/internal/skipgraph"
	"lsasg/internal/wire"
	"lsasg/internal/workingset"
)

// The traced run replays the wire session's exact op stream in-process
// through two replicas of the daemon in lockstep, one op at a time: the
// lsasg Service the daemon fronts, and a decomposition into each layer's
// public functions in the daemon's batch-1 order. Stepping them together
// lets the box's speed drift hit every row alike. Spans are kept in memory,
// one per op, and folded into per-layer means over the timed ops at the end.

// span is one op's cost in each layer.
type span struct {
	service                                       time.Duration
	codec, read, route, apply, publish, ws, shard time.Duration
	frameBytes                                    int
	hops                                          int
	applyAllocs, applyBytes, publishAllocs        uint64
	rounds, repairInserted, repairRemoved         int
}

// topo is where a replica left the topology.
type topo struct {
	height, dummies int
	rounds          int64
}

// replica is one in-process copy of the daemon, served one generation at a
// time as the daemon is between Stats calls.
type replica interface {
	begin()
	do(i int, op lsasg.Op, sp *span) error
	end() (topo, error)
}

// traceReplay returns the per-layer metrics of one session, plus every
// consistency check the replicas failed.
func traceReplay(s spec, w *wireRun) (map[string]float64, []string, error) {
	ops := append(append([]lsasg.Op(nil), w.setupOps...), w.timed...)
	first := len(w.setupOps)
	svc, err := newServiceReplica(s, len(ops))
	if err != nil {
		return nil, nil, err
	}
	var layers replica
	var sh *shardReplica
	if s.shards > 1 {
		if sh, err = newShardReplica(s, first); err != nil {
			return nil, nil, err
		}
		layers = sh
	} else {
		layers = newGraphReplica()
	}

	spans := make([]span, len(ops))
	cuts := w.cuts
	var gc0 uint64
	var svcTopo, layerTopo topo
	for i, op := range ops {
		if i == 0 || len(cuts) > 0 && cuts[0] == i {
			if i > 0 {
				cuts = cuts[1:]
				if _, err := svc.end(); err != nil {
					return nil, nil, err
				}
				if _, err := layers.end(); err != nil {
					return nil, nil, err
				}
			}
			svc.begin()
			layers.begin()
		}
		if i == first {
			gc0 = gcCycles()
		}
		if err := svc.do(i, op, &spans[i]); err != nil {
			return nil, nil, err
		}
		timeCodec(i, op, svc.results[i], &spans[i])
		if err := layers.do(i, op, &spans[i]); err != nil {
			return nil, nil, err
		}
	}
	gcs := gcCycles() - gc0
	if svcTopo, err = svc.end(); err != nil {
		return nil, nil, err
	}
	if layerTopo, err = layers.end(); err != nil {
		return nil, nil, err
	}

	var bad []string
	daemon := topo{w.final.Height, w.final.DummyCount, w.final.TotalTransformRounds}
	for _, c := range []struct {
		name string
		got  topo
	}{{"service", svcTopo}, {"layer", layerTopo}} {
		if c.got != daemon {
			bad = append(bad, fmt.Sprintf("%s replica ended at height %d, %d dummies, %d transform rounds; the daemon at %d, %d, %d",
				c.name, c.got.height, c.got.dummies, c.got.rounds, daemon.height, daemon.dummies, daemon.rounds))
		}
	}
	var o oracle
	for i, op := range ops {
		if err := o.check(op, responseFor(op, svc.results[i])); err != nil {
			bad = append(bad, "service replica: "+err.Error())
			break
		}
	}

	timed := spans[first:]
	nt := float64(len(timed))
	us := func(f func(sp *span) time.Duration) float64 {
		var sum time.Duration
		for i := range timed {
			sum += f(&timed[i])
		}
		return float64(sum) / float64(time.Microsecond) / nt
	}
	mean := func(f func(sp *span) float64) float64 {
		var sum float64
		for i := range timed {
			sum += f(&timed[i])
		}
		return sum / nt
	}
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	m["service.op_us"] = us(func(sp *span) time.Duration { return sp.service })
	m["wire.codec_us"] = us(func(sp *span) time.Duration { return sp.codec })
	m["wire.frame_bytes"] = mean(func(sp *span) float64 { return float64(sp.frameBytes) })
	m["wire.boundary_us"] = meanUs(w.lat) - m["service.op_us"]
	m["workingset.add_us"] = us(func(sp *span) time.Duration { return sp.ws })
	m["runtime.gc_cycles_per_kop"] = 1000 * float64(gcs) / nt
	if sh != nil {
		m["shard.op_us"] = us(func(sp *span) time.Duration { return sp.shard })
		sh.metrics(m, nt)
		return m, bad, nil
	}
	m["serve.read_us"] = us(func(sp *span) time.Duration { return sp.read })
	m["skipgraph.route_us"] = us(func(sp *span) time.Duration { return sp.route })
	m["skipgraph.route_hops"] = mean(func(sp *span) float64 { return float64(sp.hops) })
	m["skipgraph.publish_us"] = us(func(sp *span) time.Duration { return sp.publish })
	m["skipgraph.publish_allocs"] = mean(func(sp *span) float64 { return float64(sp.publishAllocs) })
	m["core.apply_us"] = us(func(sp *span) time.Duration { return sp.apply })
	m["core.apply_allocs"] = mean(func(sp *span) float64 { return float64(sp.applyAllocs) })
	m["core.apply_kib"] = mean(func(sp *span) float64 { return float64(sp.applyBytes) / 1024 })
	m["core.transform_rounds"] = mean(func(sp *span) float64 { return float64(sp.rounds) })
	m["core.repair_inserted"] = mean(func(sp *span) float64 { return float64(sp.repairInserted) })
	m["core.repair_removed"] = mean(func(sp *span) float64 { return float64(sp.repairRemoved) })
	return m, bad, nil
}

// rowsUs sums the per-layer rows that make up one service op. On a
// sharded workload the snapshot and adjuster rows run inside shard.op_us.
func rowsUs(m map[string]float64) float64 {
	if m["shard.op_us"] > 0 {
		return m["shard.op_us"] + m["workingset.add_us"]
	}
	return m["serve.read_us"] + m["skipgraph.route_us"] + m["core.apply_us"] +
		m["skipgraph.publish_us"] + m["workingset.add_us"]
}

func meanUs(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(time.Microsecond) / float64(len(ds))
}

func coreOp(op lsasg.Op) core.Op {
	return core.Op{Kind: core.OpKind(op.Kind), Src: int64(op.Src), Dst: int64(op.Dst), Value: op.Value, Limit: op.Limit}
}

// gcCycles reads the runtime's completed GC cycle count.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// --- the lsasg Service replica ----------------------------------------------

// serviceReplica serves ops through an in-process lsasg Service configured
// like dsgserve (batch 1, parallelism 1), one ServeOps run per generation,
// and times each op from hand-off to result.
type serviceReplica struct {
	svc     lsasg.Service
	in      chan lsasg.Op
	out     chan lsasg.OpResult
	errc    chan error
	results []lsasg.OpResult
}

func newServiceReplica(s spec, n int) (*serviceReplica, error) {
	opts := []lsasg.Option{lsasg.WithSeed(daemonSeed), lsasg.WithBatchSize(1), lsasg.WithParallelism(1)}
	var svc lsasg.Service
	var err error
	if s.shards > 1 {
		svc, err = lsasg.NewSharded(keys, append(opts, lsasg.WithShards(s.shards), lsasg.WithRebalanceWindow(1))...)
	} else {
		svc, err = lsasg.New(keys, opts...)
	}
	return &serviceReplica{svc: svc, results: make([]lsasg.OpResult, n)}, err
}

func (r *serviceReplica) begin() {
	in, out, errc := make(chan lsasg.Op), make(chan lsasg.OpResult, 1), make(chan error, 1)
	r.in, r.out, r.errc = in, out, errc
	go func() {
		_, err := r.svc.ServeOps(context.Background(), in, func(res lsasg.OpResult) { out <- res })
		errc <- err
	}()
}

func (r *serviceReplica) do(i int, op lsasg.Op, sp *span) error {
	t0 := time.Now()
	select {
	case r.in <- op:
	case err := <-r.errc:
		return fmt.Errorf("service replica op %d: %w", i, err)
	}
	select {
	case r.results[i] = <-r.out:
	case err := <-r.errc:
		return fmt.Errorf("service replica op %d: %w", i, err)
	}
	sp.service = time.Since(t0)
	return nil
}

func (r *serviceReplica) end() (topo, error) {
	close(r.in)
	if err := <-r.errc; err != nil {
		return topo{}, fmt.Errorf("service replica: %w", err)
	}
	st := r.svc.Stats()
	return topo{st.Height, st.DummyCount, st.TotalTransformRounds}, nil
}

// responseFor maps one in-process result onto its wire response, field for
// field as the daemon answers it.
func responseFor(op lsasg.Op, r lsasg.OpResult) wire.Response {
	req, _ := wire.RequestFor(op)
	resp := wire.Response{Verb: req.Verb, Distance: int64(r.RouteDistance), Hops: int64(r.RouteHops), Lag: int64(r.AdjustLag)}
	switch op.Kind {
	case lsasg.RouteKind:
		resp.Node = int64(op.Dst)
	case lsasg.GetKind:
		resp.Found, resp.Version, resp.Value = r.Found, r.Version, r.Value
	case lsasg.PutKind:
		resp.Version, resp.Existed = r.Version, r.Existed
	case lsasg.DeleteKind:
		resp.Existed = r.Existed
	case lsasg.ScanKind:
		if len(r.Entries) > 0 {
			resp.Entries = make([]wire.Entry, len(r.Entries))
			for i, kv := range r.Entries {
				resp.Entries[i] = wire.Entry{Key: int64(kv.Key), Version: kv.Version, Value: kv.Value}
			}
		}
	}
	return resp
}

// timeCodec times the wire codec for one op: encode and decode of the
// request and of its response, the work both ends of the connection do.
func timeCodec(i int, op lsasg.Op, res lsasg.OpResult, sp *span) {
	resp := responseFor(op, res)
	t0 := time.Now()
	req, _ := wire.RequestFor(op)
	req.Seq = uint64(i + 1)
	rb := req.Encode()
	_, err1 := wire.DecodeRequest(rb)
	resp.Seq = req.Seq
	pb := resp.Encode()
	_, err2 := wire.DecodeResponse(pb)
	sp.codec = time.Since(t0)
	sp.frameBytes = len(rb) + len(pb) + 8 // two 4-byte length prefixes
	if err1 != nil || err2 != nil {
		panic(fmt.Sprintf("kvbench: codec round trip failed: %v %v", err1, err2))
	}
}

// --- the single-graph layer replica -------------------------------------------

// graphReplica is the single-graph decomposition, in the order the daemon's
// batch-1 pipeline runs each op: the read on the previously published
// snapshot (route, then Get or Scan), core.DSG.ApplyOp, the copy-on-write
// publish, and the working-set bookkeeping. Each generation starts, as
// serve.New does, with a global balance repair and a fresh publisher.
type graphReplica struct {
	d      *core.DSG
	ws     *workingset.Bound
	pub    *skipgraph.Publisher
	snap   *serve.Snapshot
	rounds int64
	ms     runtime.MemStats
}

func newGraphReplica() *graphReplica {
	return &graphReplica{d: core.New(keys, core.Config{A: 4, Seed: daemonSeed}), ws: workingset.NewBound(keys)}
}

func (g *graphReplica) begin() {
	g.d.RepairBalance()
	g.pub = skipgraph.NewPublisher(g.d.Graph())
	g.snap = &serve.Snapshot{Graph: g.pub.Current()}
}

func (g *graphReplica) do(i int, op lsasg.Op, sp *span) error {
	cop := coreOp(op)
	if op.Kind != lsasg.ScanKind {
		t0 := time.Now()
		r, err := g.snap.Route(cop.Src, cop.Dst)
		sp.route = time.Since(t0)
		if err == nil {
			sp.hops = r.Hops()
		}
	}
	t0 := time.Now()
	switch op.Kind {
	case lsasg.GetKind:
		g.snap.Get(cop.Dst)
	case lsasg.ScanKind:
		g.snap.Scan(cop.Dst, cop.Limit)
	}
	sp.read = time.Since(t0)

	runtime.ReadMemStats(&g.ms)
	a0, b0 := g.ms.Mallocs, g.ms.TotalAlloc
	t0 = time.Now()
	res, err := g.d.ApplyOp(cop)
	sp.apply = time.Since(t0)
	runtime.ReadMemStats(&g.ms)
	a1, b1 := g.ms.Mallocs, g.ms.TotalAlloc
	if err != nil {
		return fmt.Errorf("layer replica op %d: %w", i, err)
	}
	sp.applyAllocs, sp.applyBytes = a1-a0, b1-b0
	sp.rounds, sp.repairInserted, sp.repairRemoved = res.TransformRounds, res.RepairInserted, res.RepairRemoved
	g.rounds += int64(res.TransformRounds)

	t0 = time.Now()
	g.snap = &serve.Snapshot{Epoch: g.snap.Epoch + 1, Graph: g.pub.Publish()}
	sp.publish = time.Since(t0)
	runtime.ReadMemStats(&g.ms)
	sp.publishAllocs = g.ms.Mallocs - a1

	if op.Src != op.Dst {
		t0 = time.Now()
		g.ws.Add(op.Src, op.Dst)
		sp.ws = time.Since(t0)
	}
	return nil
}

func (g *graphReplica) end() (topo, error) {
	return topo{g.d.Graph().Height(), g.d.DummyCount(), g.rounds}, nil
}

// --- the sharded layer replica ------------------------------------------------

// shardReplica serves ops through internal/shard configured like the
// daemon's sharded service (window 1, batch 1), one Serve run per
// generation. The shard engines own their graphs, so below the shard layer
// only the engines' stage clocks are visible: the snapshot leg
// (serve.read_us) and the adjuster pass (core.apply_us).
type shardReplica struct {
	svc  *shard.Service
	tr   *obs.Tracer
	ws   *workingset.Bound
	in   chan core.Op
	out  chan struct{}
	done chan shardServed

	first, cur int
	wsDur      time.Duration
	cross      int64
	live0      shard.LiveStats
	read0      int64
	apply0     int64
	rounds     int64
}

type shardServed struct {
	st  shard.ServeStats
	err error
}

func newShardReplica(s spec, first int) (*shardReplica, error) {
	r := &shardReplica{tr: obs.NewTracer(), ws: workingset.NewBound(keys), out: make(chan struct{}, 1), first: first}
	svc, err := shard.New(keys, shard.Config{
		Shards:         s.shards,
		A:              4,
		Seed:           daemonSeed,
		Parallelism:    1,
		BatchSize:      1,
		RebalanceEvery: 1,
		Tracer:         r.tr,
		OnRequest:      r.onRequest,
		OnOutcome:      func(shard.Outcome) { r.out <- struct{}{} },
	})
	r.svc = svc
	return r, err
}

func (r *shardReplica) stageSum(stage int) int64 {
	_, sum, _ := r.tr.StageHistogram(stage).Snapshot()
	return sum
}

// onRequest runs on the Serve goroutine as each op is dispatched — after
// the previous window's rebalance, so the first timed op marks where the
// timed phase's shard counters start.
func (r *shardReplica) onRequest(src, dst int64, cross bool) {
	if r.cur == r.first {
		r.live0 = r.svc.Live()
		r.read0, r.apply0 = r.stageSum(obs.StageRouteLeg), r.stageSum(obs.StageAdjustApply)
	}
	if r.cur >= r.first && cross {
		r.cross++
	}
	if src != dst {
		t0 := time.Now()
		r.ws.Add(int(src), int(dst))
		r.wsDur = time.Since(t0)
	}
}

func (r *shardReplica) begin() {
	in, done := make(chan core.Op), make(chan shardServed, 1)
	r.in, r.done = in, done
	go func() {
		st, err := r.svc.Serve(context.Background(), in)
		done <- shardServed{st, err}
	}()
}

func (r *shardReplica) do(i int, op lsasg.Op, sp *span) error {
	r.cur, r.wsDur = i, 0
	t0 := time.Now()
	select {
	case r.in <- coreOp(op):
	case res := <-r.done:
		return fmt.Errorf("shard replica op %d: %v", i, res.err)
	}
	select {
	case <-r.out:
	case res := <-r.done:
		return fmt.Errorf("shard replica op %d: %v", i, res.err)
	}
	sp.ws = r.wsDur
	sp.shard = time.Since(t0) - r.wsDur
	return nil
}

func (r *shardReplica) end() (topo, error) {
	close(r.in)
	res := <-r.done
	if res.err != nil {
		return topo{}, fmt.Errorf("shard replica: %w", res.err)
	}
	r.rounds += res.st.TotalTransformRounds
	return topo{res.st.Height, res.st.DummyCount, r.rounds}, nil
}

// metrics fills the shard counters over the timed phase and the stage
// clocks below it.
func (r *shardReplica) metrics(m map[string]float64, nt float64) {
	live := r.svc.Live()
	m["shard.cross_shard_ops"] = float64(r.cross)
	m["shard.rebalances"] = float64(live.Rebalances - r.live0.Rebalances)
	m["shard.migrated_keys"] = float64(live.MigratedKeys - r.live0.MigratedKeys)
	m["serve.read_us"] = float64(r.stageSum(obs.StageRouteLeg)-r.read0) / 1e3 / nt
	m["core.apply_us"] = float64(r.stageSum(obs.StageAdjustApply)-r.apply0) / 1e3 / nt
}
