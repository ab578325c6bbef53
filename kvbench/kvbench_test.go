package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"lsasg"
	"lsasg/internal/wire"
)

// encodeStream renders an op stream as the request frames it becomes.
func encodeStream(ops []lsasg.Op) []byte {
	var buf bytes.Buffer
	for _, op := range ops {
		req, ok := wire.RequestFor(op)
		if !ok {
			panic("unmapped op")
		}
		if err := wire.WriteFrame(&buf, req.Encode()); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

func streamBytes(s spec, seed int64) []byte {
	setup, timed := s.stream(seed, 400)
	return encodeStream(append(setup, timed...))
}

func TestStreamDeterministic(t *testing.T) {
	for _, s := range specs {
		a, b := streamBytes(s, 7), streamBytes(s, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op streams", s.name)
		}
		if bytes.Equal(a, streamBytes(s, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", s.name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	for _, s := range specs {
		setup, timed := s.stream(3, 2000)
		if len(setup) != keys || len(timed) != 2000 {
			t.Fatalf("%s: %d setup and %d timed ops", s.name, len(setup), len(timed))
		}
		for _, op := range append(setup, timed...) {
			if err := op.Validate(keys); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if op.Kind == lsasg.PutKind && (len(op.Value) < minValue || len(op.Value) > maxValue) {
				t.Fatalf("%s: %d-byte value", s.name, len(op.Value))
			}
		}
	}
	// The CRUD mix must carry real joins and leaves, not only updates.
	g := newGen(3)
	g.load()
	var deletes, inserts int
	live := make([]bool, keys)
	for i := range live {
		live[i] = true
	}
	for _, op := range g.crudHotRange(4000) {
		switch {
		case op.Kind == lsasg.DeleteKind:
			deletes++
			live[op.Dst] = false
		case op.Kind == lsasg.PutKind && !live[op.Dst]:
			inserts++
			live[op.Dst] = true
		}
	}
	if deletes < 300 || inserts < 300 {
		t.Fatalf("crud mix drew %d deletes and %d inserts", deletes, inserts)
	}
}

// TestTailSamples pins that at the default run length a run's p99 has at
// least ten samples beyond it.
func TestTailSamples(t *testing.T) {
	for _, s := range specs {
		if n := defaultSeconds * s.opsPerSecond / s.sessions * s.sessions; n < 1000 {
			t.Errorf("%s: %d timed ops", s.name, n)
		}
		if setups < s.sessions {
			t.Errorf("%s: %d set-ups for %d sessions", s.name, setups, s.sessions)
		}
	}
}

// correctAnswer is the response a correct server gives to op, given the
// oracle's state before it.
func correctAnswer(o *oracle, op lsasg.Op, version int64) wire.Response {
	switch op.Kind {
	case lsasg.GetKind:
		r := o.vals[op.Dst]
		return wire.Response{Found: r.ok, Value: r.value, Version: r.version}
	case lsasg.PutKind:
		return wire.Response{Existed: !o.dead[op.Dst], Version: version}
	case lsasg.DeleteKind:
		return wire.Response{Existed: !o.dead[op.Dst]}
	default:
		var es []wire.Entry
		for _, kv := range o.scan(op.Dst, op.Limit) {
			es = append(es, wire.Entry{Key: int64(kv.Key), Version: kv.Version, Value: kv.Value})
		}
		return wire.Response{Entries: es}
	}
}

func TestOracleAcceptsCorrectAnswers(t *testing.T) {
	var o oracle
	ops := []lsasg.Op{
		lsasg.PutOp(1, 5, []byte("five")),
		lsasg.PutOp(1, 9, []byte("nine")),
		lsasg.GetOp(2, 5),
		lsasg.GetOp(2, 6),
		lsasg.ScanOp(0, 0, 3),
		lsasg.DeleteOp(1, 5),
		lsasg.PutOp(1, 5, []byte("again")),
		lsasg.ScanOp(0, 4, 1),
	}
	for i, op := range ops {
		if err := o.check(op, correctAnswer(&o, op, int64(i+1))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	want := kvCounts{Gets: 2, GetHits: 1, Puts: 3, PutInserts: 1, Deletes: 1, DeleteHits: 1, Scans: 2, ScannedEntries: 3}
	if o.want != want {
		t.Fatalf("counts %+v, want %+v", o.want, want)
	}
}

func TestOracleFlagsStaleGet(t *testing.T) {
	var o oracle
	o.check(lsasg.PutOp(1, 5, []byte("old")), wire.Response{Existed: true, Version: 1})
	o.check(lsasg.PutOp(1, 5, []byte("new")), wire.Response{Existed: true, Version: 2})
	if err := o.check(lsasg.GetOp(2, 5), wire.Response{Found: true, Value: []byte("old"), Version: 1}); err == nil {
		t.Fatal("a stale get passed")
	}
	if err := o.check(lsasg.GetOp(2, 5), wire.Response{Found: true, Value: []byte("new"), Version: 1}); err == nil {
		t.Fatal("a get with a stale version passed")
	}
}

func TestOracleFlagsDroppedScanEntry(t *testing.T) {
	var o oracle
	for k := 10; k < 14; k++ {
		o.check(lsasg.PutOp(1, k, []byte{byte(k)}), wire.Response{Existed: true, Version: int64(k)})
	}
	full := correctAnswer(&o, lsasg.ScanOp(0, 10, 4), 0).Entries
	dropped := wire.Response{Entries: []wire.Entry{full[0], full[2], full[3]}}
	if err := o.check(lsasg.ScanOp(0, 10, 4), dropped); err == nil {
		t.Fatal("a scan missing an entry passed")
	}
	// A skipped key with the count kept is caught too.
	skipped := wire.Response{Entries: []wire.Entry{full[0], full[2]}}
	if err := o.check(lsasg.ScanOp(0, 10, 2), skipped); err == nil {
		t.Fatal("a scan that skipped a key passed")
	}
}

func TestOracleFlagsNonRisingVersion(t *testing.T) {
	var o oracle
	if err := o.check(lsasg.PutOp(1, 5, []byte("a")), wire.Response{Existed: true, Version: 4}); err != nil {
		t.Fatal(err)
	}
	if err := o.check(lsasg.PutOp(1, 5, []byte("b")), wire.Response{Existed: true, Version: 4}); err == nil {
		t.Fatal("a repeated version passed")
	}
	if err := o.check(lsasg.PutOp(1, 5, []byte("c")), wire.Response{Existed: true, Version: 3}); err == nil {
		t.Fatal("a falling version passed")
	}
}

func TestOracleCountsRecreatedKeyApart(t *testing.T) {
	var o oracle
	o.check(lsasg.PutOp(1, 5, []byte("a")), wire.Response{Existed: true, Version: 9})
	o.check(lsasg.DeleteOp(1, 5), wire.Response{Existed: true})
	if err := o.check(lsasg.PutOp(1, 5, []byte("b")), wire.Response{Existed: false, Version: 7}); err != nil {
		t.Fatal(err)
	}
	if o.reborn != 1 {
		t.Fatalf("reborn %d, want 1", o.reborn)
	}
	if err := o.check(lsasg.PutOp(1, 5, []byte("c")), wire.Response{Existed: true, Version: 7}); err == nil {
		t.Fatal("the re-created key's next version did not have to rise")
	}
}

// benchmarkJSON is the part of BENCHMARK.json that kvbench's metrics must
// agree with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, kvbench default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, kvbench %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, kvbench %q", i, w.Name, specs[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, kvbench %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s/%s, kvbench %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, kvbench %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s/%s, kvbench %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
		}
	}
}
