package main

import (
	"bytes"
	"fmt"

	"lsasg"
	"lsasg/internal/wire"
)

// oracle is the benchmark's own model of the key-value state, built only
// from the writes the daemon acknowledged. It is a sorted map: slot k holds
// key k's value record. Every key starts as a live node without a value,
// which is how the daemon starts.
type oracle struct {
	vals    [keys]record
	dead    [keys]bool // deleted and not put since
	lastVer [keys]int64
	want    kvCounts
	// reborn counts puts re-creating a deleted key at a version not above
	// the deleted incarnation's last one.
	reborn int
}

type record struct {
	value   []byte
	version int64
	ok      bool
}

// kvCounts mirrors the KV counters of lsasg.ServeStats.
type kvCounts struct {
	Gets, GetHits, Puts, PutInserts, Deletes, DeleteHits, Scans, ScannedEntries int64
}

func countsOf(s lsasg.ServeStats) kvCounts {
	return kvCounts{s.Gets, s.GetHits, s.Puts, s.PutInserts, s.Deletes, s.DeleteHits, s.Scans, s.ScannedEntries}
}

// check compares one op's response with the model and then applies the op.
// A nil error means the response was exactly what the model predicts.
func (o *oracle) check(op lsasg.Op, resp wire.Response) error {
	key := op.Dst
	cur := o.vals[key]
	switch op.Kind {
	case lsasg.GetKind:
		o.want.Gets++
		if cur.ok {
			o.want.GetHits++
		}
		if resp.Found != cur.ok {
			return fmt.Errorf("get %d: found=%v, want %v", key, resp.Found, cur.ok)
		}
		if cur.ok && (!bytes.Equal(resp.Value, cur.value) || resp.Version != cur.version) {
			return fmt.Errorf("get %d: got %q@%d, want %q@%d", key, resp.Value, resp.Version, cur.value, cur.version)
		}
	case lsasg.PutKind:
		o.want.Puts++
		live := !o.dead[key]
		if !live {
			o.want.PutInserts++
		}
		// The model advances even on a mismatch, so one fault is counted
		// once and does not cascade into every later read of the key.
		last := o.lastVer[key]
		o.vals[key] = record{value: op.Value, version: resp.Version, ok: true}
		o.lastVer[key] = resp.Version
		o.dead[key] = false
		if resp.Existed != live {
			return fmt.Errorf("put %d: existed=%v, want %v", key, resp.Existed, live)
		}
		if resp.Version <= last {
			if live {
				return fmt.Errorf("put %d: version %d does not rise above %d", key, resp.Version, last)
			}
			// A re-created key may restart below its deleted
			// incarnation on the sharded service, whose shards keep
			// separate clocks; that happens on some seeds only, so it is
			// counted apart (README, Findings) rather than as a failure.
			o.reborn++
		}
	case lsasg.DeleteKind:
		o.want.Deletes++
		live := !o.dead[key]
		if live {
			o.want.DeleteHits++
		}
		o.vals[key] = record{}
		o.dead[key] = true
		if resp.Existed != live {
			return fmt.Errorf("delete %d: existed=%v, want %v", key, resp.Existed, live)
		}
	case lsasg.ScanKind:
		o.want.Scans++
		want := o.scan(key, op.Limit)
		o.want.ScannedEntries += int64(len(want))
		if len(resp.Entries) != len(want) {
			return fmt.Errorf("scan %d/%d: %d entries, want %d", key, op.Limit, len(resp.Entries), len(want))
		}
		for i, e := range resp.Entries {
			w := want[i]
			if int(e.Key) != w.Key || e.Version != w.Version || !bytes.Equal(e.Value, w.Value) {
				return fmt.Errorf("scan %d/%d: entry %d is %d@%d, want %d@%d", key, op.Limit, i, e.Key, e.Version, w.Key, w.Version)
			}
		}
	default:
		return fmt.Errorf("op kind %d is not a KV op", op.Kind)
	}
	return nil
}

// scan returns the first limit value-bearing keys ≥ start.
func (o *oracle) scan(start, limit int) []lsasg.KV {
	var out []lsasg.KV
	for k := start; k < keys && len(out) < limit; k++ {
		if r := o.vals[k]; r.ok {
			out = append(out, lsasg.KV{Key: k, Value: r.value, Version: r.version})
		}
	}
	return out
}
