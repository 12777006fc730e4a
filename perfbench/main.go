// Command perfbench drives Reo's cache manager through three workloads and
// prints end-to-end metrics (untraced runs) or per-layer metrics (traced
// runs). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload sim-rw --seed 1 --seconds 20 --trace 0
//
// Every read is byte-checked against the benchmark's own payload for the
// last acknowledged version; any mismatch, or any other failed check,
// exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, hooks{})) }

// run executes one benchmark invocation and returns the exit code.
func run(args []string, stdout, stderr io.Writer, h hooks) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "sim-rw, wire-hit or degraded-rebuild")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured run length")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the span dump of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	b, err := newBench(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b.hooks = h
	if h.shrink != nil {
		h.shrink(&b.p)
		b.makeInputs()
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	if err = b.setup(); err != nil {
		err = fmt.Errorf("set-up: %w", err)
	} else {
		err = b.run()
		if err == nil {
			err = b.verify()
		}
	}
	if b.sys != nil {
		defer b.sys.close()
	}
	for _, is := range b.iss {
		res.Attempted += is.ops
		res.Failed += is.failed
	}
	if err == nil && b.traced {
		err = b.perLayer(res.Metrics, *out, stdout)
	} else if err == nil {
		b.endToEnd(res.Metrics, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.name, err)
		res.Correct = false
		res.Metrics = map[string]metric{}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// totals sums the issuers' measured-phase counters.
func (b *bench) totals() (ops int64, callNs, opsBy [2]int64, v virt) {
	for _, is := range b.iss {
		ops += is.ops
		for m := 0; m < 2; m++ {
			callNs[m] += is.callNs[m]
			opsBy[m] += is.opsBy[m]
		}
		v.ops += is.v.ops
		v.reads += is.v.reads
		v.hits += is.v.hits
		v.bytes += is.v.bytes
		v.lat += is.v.lat
		v.busy += is.v.busy
	}
	for m := 0; m < 2; m++ {
		callNs[m] += b.extraNs[m]
	}
	return
}

// endToEnd fills the metrics a user of the cache sees.
func (b *bench) endToEnd(m map[string]metric, w io.Writer) {
	ops, _, _, v := b.totals()
	var readParts, writeParts [][]int64
	var rates []float64
	opsPerS := 0.0
	for _, is := range b.iss {
		readParts = append(readParts, is.readNs)
		writeParts = append(writeParts, is.writeNs)
		if len(b.iss) > 1 {
			// Issuers run side by side; their wall-clock rates add.
			r := wallRates(is.marks)
			opsPerS += median(r)
			rates = append(rates, r...)
		} else {
			rates = blockRates(is.opNs)
			opsPerS = median(rates)
		}
	}
	nReads, nWrites := 0, 0
	for i := range readParts {
		nReads += len(readParts[i])
		nWrites += len(writeParts[i])
	}
	rp50, wp50 := blockQuantiles(0.50, readParts...), blockQuantiles(0.50, writeParts...)
	m["ops_per_s"] = metric{opsPerS, "ops/s"}
	m["read_p50_us"] = metric{median(rp50) / 1e3, "us"}
	m["write_p50_us"] = metric{median(wp50) / 1e3, "us"}
	m["setup_s"] = metric{median(b.setupS), "s"}
	m["alloc_bytes_per_op"] = metric{float64(b.end.mem.TotalAlloc-b.start.mem.TotalAlloc) / float64(ops), "B"}
	m["hit_ratio"] = metric{float64(v.hits) / float64(v.reads), "ratio"}
	m["virt_MBps"] = metric{float64(v.bytes) / 1e6 / (v.busy + b.rb.virt).Seconds(), "MB/s"}
	m["virt_lat_ms"] = metric{float64(v.lat) / float64(v.ops) / 1e6, "ms"}
	m["space_efficiency"] = metric{b.virtSE, "ratio"}
	offered := b.virtEnd.cs.OfferedBytes - b.start.cs.OfferedBytes
	m["flash_write_amp"] = metric{float64(b.virtEnd.fl.BytesWritten-b.start.fl.BytesWritten) / float64(offered), "ratio"}

	fmt.Fprintf(w, "%s seed=%d: %d ops in %.2fs wall (%d issuer(s)); %d throughput blocks; %d read samples in %d blocks, %d write samples in %d blocks; %d virtual-window ops\n",
		b.name, b.seed, ops, float64(b.wallNs)/1e9, len(b.iss), len(rates), nReads, len(rp50), nWrites, len(wp50), v.ops)
	if b.rb.calls > 0 {
		fmt.Fprintf(w, "rebuild: %d cycles, %d RecoverStep calls, %d objects, %.2f MB in %.3fs (%.1f MB/s)\n",
			b.cycles, b.rb.calls, b.rb.objects, float64(b.rb.bytes)/1e6, float64(b.rb.ns)/1e9,
			float64(b.rb.bytes)/1e6/(float64(b.rb.ns)/1e9))
	}
	// Live heap after forced collections, with the benchmark's own
	// latency samples dropped so only the program's state remains.
	for _, is := range b.iss {
		is.readNs, is.writeNs, is.opNs = nil, nil, nil
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["live_heap_MB"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MiB"}
	runtime.KeepAlive(b.sys)
}
