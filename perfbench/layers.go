package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// perLayer checks the span tree, dumps it, and fills the per-layer metrics
// of a traced run. Times come from traced rounds; counters cover the whole
// measured phase; tracing overhead compares the untraced rounds' call
// throughput with the traced rounds'.
func (b *bench) perLayer(m map[string]metric, dir string, w io.Writer) error {
	lt, err := b.tr.summarize()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", b.name, b.seed))
	if err := b.tr.dump(path); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	ops, callNs, opsBy, _ := b.totals()
	s0, s1 := b.start, b.end
	perCall := func(ns, calls int64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(ns) / float64(calls) / 1e3
	}
	layerSum := func(layer int, dur bool) (ns, calls int64) {
		for op := 0; op < numOps; op++ {
			a := lt[spLayerOps+layer*numOps+op]
			calls += a.calls
			if dur {
				ns += a.durNs
			} else {
				ns += a.selfNs
			}
		}
		return
	}
	count := func(name string, v int64) { m[name] = metric{float64(v), "count"} }

	m["cache.read.self_us"] = metric{perCall(lt[spCacheRead].selfNs, lt[spCacheRead].calls), "us"}
	m["cache.write.self_us"] = metric{perCall(lt[spCacheWrite].selfNs, lt[spCacheWrite].calls), "us"}
	count("cache.hits", s1.cs.Hits-s0.cs.Hits)
	count("cache.misses", s1.cs.Misses-s0.cs.Misses)
	count("cache.evictions", s1.cs.Evictions-s0.cs.Evictions)
	count("cache.flushes", s1.cs.Flushes-s0.cs.Flushes)
	count("cache.reclassified", s1.cs.Reclassified-s0.cs.Reclassified)
	// Tail latency of the cache manager's calls, from the untraced rounds:
	// on a shared two-core host it spreads too widely between runs to be
	// bounded end to end.
	var reads, writes [][]int64
	for _, is := range b.iss {
		reads = append(reads, is.readNs)
		writes = append(writes, is.writeNs)
	}
	m["cache.read.p99_us"] = metric{median(blockQuantiles(0.99, reads...)) / 1e3, "us"}
	m["cache.write.p99_us"] = metric{median(blockQuantiles(0.99, writes...)) / 1e3, "us"}
	m["cache.refresh_pause_ms"] = metric{float64(s1.cs.RefreshPauseTotal-s0.cs.RefreshPauseTotal) / 1e6, "ms"}
	m["cache.admitted_MB"] = metric{float64(s1.cs.AdmittedBytes-s0.cs.AdmittedBytes) / 1e6, "MB"}

	for _, op := range []int{opGet, opPut, opReclassify, opMarkClean, opDelete} {
		a := lt[spLayerOps+layerStore*numOps+op]
		m["store."+opNames[op]+"_us"] = metric{perCall(a.selfNs, a.calls), "us"}
		count("store."+opNames[op]+".calls", a.calls)
	}
	count("store.degraded_reads", b.sys.top.degraded.Load())
	m["store.recover_step_us"] = metric{perCall(b.rb.ns, b.rb.calls), "us"}
	count("store.recover_step.calls", b.rb.calls)
	count("store.rebuilt_objects", b.rb.objects)
	m["store.rebuilt_MB"] = metric{float64(b.rb.bytes) / 1e6, "MB"}
	rate := 0.0
	if b.rb.ns > 0 {
		rate = float64(b.rb.bytes) / 1e6 / (float64(b.rb.ns) / 1e9)
	}
	m["store.rebuild_MBps"] = metric{rate, "MB/s"}

	count("flash.write_ops", s1.fl.WriteOps-s0.fl.WriteOps)
	m["flash.written_MB"] = metric{float64(s1.fl.BytesWritten-s0.fl.BytesWritten) / 1e6, "MB"}
	count("flash.read_ops", s1.fl.ReadOps-s0.fl.ReadOps)
	m["flash.read_MB"] = metric{float64(s1.fl.BytesRead-s0.fl.BytesRead) / 1e6, "MB"}

	count("backend.reads", s1.be.Reads-s0.be.Reads)
	m["backend.read_MB"] = metric{float64(s1.be.BytesRead-s0.be.BytesRead) / 1e6, "MB"}
	count("backend.writes", s1.be.Writes-s0.be.Writes)

	ns, calls := layerSum(layerCluster, false)
	m["cluster.self_us"] = metric{perCall(ns, calls), "us"}
	count("cluster.calls", calls)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("shard-%d", i)
		count("cluster.ops."+name, shardOps(s1, name)-shardOps(s0, name))
	}
	ns, calls = layerSum(layerTransport, true)
	m["transport.call_us"] = metric{perCall(ns, calls), "us"}
	count("transport.calls", calls)
	frames, flushes := s1.wire.Frames-s0.wire.Frames, s1.wire.Flushes-s0.wire.Flushes
	count("wire.frames", frames)
	count("wire.flushes", flushes)
	fpf := 0.0
	if flushes > 0 {
		fpf = float64(frames) / float64(flushes)
	}
	m["wire.frames_per_flush"] = metric{fpf, "ratio"}
	count("wire.leases", s1.wire.Leases-s0.wire.Leases)
	count("wire.releases", s1.wire.Releases-s0.wire.Releases)

	count("gc.cycles", int64(s1.mem.NumGC-s0.mem.NumGC))
	m["gc.pause_ms"] = metric{float64(s1.mem.PauseTotalNs-s0.mem.PauseTotalNs) / 1e6, "ms"}
	m["alloc_objects_per_op"] = metric{float64(s1.mem.Mallocs-s0.mem.Mallocs) / float64(ops), "count"}
	untraced := float64(opsBy[0]) / float64(callNs[0])
	traced := float64(opsBy[1]) / float64(callNs[1])
	m["trace.overhead_pct"] = metric{(untraced/traced - 1) * 100, "%"}
	count("trace.spans", int64(b.tr.spanCount()))
	count("trace.unattributed_calls", b.tr.unattributed.Load())

	fmt.Fprintf(w, "%s seed=%d traced: %d ops (%d traced), %d spans written to %s\n",
		b.name, b.seed, ops, opsBy[1], b.tr.spanCount(), path)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-26s %14.3f %s\n", k, m[k].Value, m[k].Unit)
	}
	return nil
}

func shardOps(s snapshot, name string) int64 {
	for _, c := range s.cl {
		if c.Name == name {
			return c.Ops
		}
	}
	return 0
}
