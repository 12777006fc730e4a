package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/cluster"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
	"github.com/reo-cache/reo/internal/transport"
)

// params shapes one workload. The defaults are in workloadParams; tests
// shrink them.
type params struct {
	objects    int
	meanSize   int
	rawFrac    float64 // raw flash as a share of the data set
	budget     float64 // Reo-X% parity budget
	writeShare float64
	issuers    int
	shards     int
	warmOps    int   // set-up operations per issuer after preloading
	roundOps   int   // operations per round; runs stop at round boundaries
	virtOps    int64 // operations in the virtual-clock window
	setups     int
	// degraded-rebuild only
	degradedOps int // requests served between a failure and the spare
	stepObjects int // objects rebuilt per interleaved RecoverStep
	virtCycles  int // cycles in the virtual-clock window, which replaces virtOps
}

func workloadParams(name string) (params, bool) {
	switch name {
	case "sim-rw":
		return params{objects: 1000, meanSize: scaledMean, rawFrac: 0.10, budget: 0.20, writeShare: 0.30,
			issuers: 1, warmOps: 1500, roundOps: 200, virtOps: 10000, setups: 3}, true
	case "wire-hit":
		return params{objects: 2048, meanSize: 2048, rawFrac: 8, budget: 0.40, writeShare: 0.20,
			issuers: 2, shards: 2, roundOps: 500, virtOps: 20000, setups: 3}, true
	case "degraded-rebuild":
		return params{objects: 400, meanSize: scaledMean, rawFrac: 0.6, budget: 0.40, writeShare: 0.10,
			issuers: 1, warmOps: 1500, virtOps: 1 << 62, setups: 3,
			degradedOps: 100, stepObjects: 2, virtCycles: 8 * devices}, true
	}
	return params{}, false
}

// hooks let the checker tests break the program's outputs from outside.
type hooks struct {
	shrink      func(*params)
	wrapTarget  func(target.Target) target.Target
	leak        func(n uint64) bool
	recoverStep func(st *store.Store, n int) (time.Duration, int, bool, error)
}

// snapshot is every counter the run reads, taken at one instant.
type snapshot struct {
	pool int64 // pooled buffers leased and not yet released
	cs   cache.Stats
	fl   flash.Stats
	be   backend.Stats
	wire transport.WireStats
	cl   []cluster.ShardCounters
	mem  runtime.MemStats
}

func (s *system) snapshot() snapshot {
	sn := snapshot{pool: bufpool.Outstanding(), cs: s.cm.Stats(), fl: s.flash(), be: s.be.Stats(),
		wire: transport.SnapshotWireStats()}
	if s.ini != nil {
		sn.cl = s.ini.Counters()
	}
	runtime.ReadMemStats(&sn.mem)
	return sn
}

// rebuild tallies Store.RecoverStep calls.
type rebuild struct {
	calls, ns, objects, bytes int64
	virt                      time.Duration
}

// bench is one run of one workload.
type bench struct {
	name    string
	p       params
	seed    uint64
	seconds time.Duration
	traced  bool
	hooks   hooks
	tr      *tracer

	ds      []*dataset
	sizes   []int
	total   int64
	sys     *system
	iss     []*issuer
	setupS  []float64
	start   snapshot
	end     snapshot
	virtEnd snapshot
	virtSE  float64 // mean space efficiency over the virtual window
	wallNs  int64
	// extraNs is program time the issuer spends outside cache.Manager
	// calls (failing devices, inserting spares, rebuild steps), by
	// untraced/traced round.
	extraNs [2]int64
	rb      rebuild
	cycles  int
}

func newBench(name string, seed uint64, seconds time.Duration, traced bool) (*bench, error) {
	p, ok := workloadParams(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want sim-rw, wire-hit or degraded-rebuild)", name)
	}
	b := &bench{name: name, p: p, seed: seed, seconds: seconds, traced: traced}
	b.makeInputs()
	return b, nil
}

// makeInputs draws the object population. wire-hit gives each issuer its
// own population (object i belongs to issuer i mod issuers) with its own
// popularity law.
func (b *bench) makeInputs() {
	per := b.p.objects / b.p.issuers
	b.total = 0
	b.sizes = make([]int, per*b.p.issuers)
	b.ds = make([]*dataset, b.p.issuers)
	for w := range b.ds {
		b.ds[w] = newDataset(b.seed+uint64(w)*0x1000193, per, b.p.meanSize, plateauMed)
		for i, s := range b.ds[w].sizes {
			b.sizes[i*b.p.issuers+w] = s
			b.total += int64(s)
		}
	}
}

// build makes a fresh system and issuers, warmed and ready to measure.
func (b *bench) build() error {
	rawBytes := int64(b.p.rawFrac * float64(b.total))
	pol := policy.Reo{ParityBudget: b.p.budget}
	var (
		sys *system
		err error
	)
	if b.p.shards > 0 {
		sys, err = buildCluster(b.seed, b.sizes, b.total, pol, rawBytes, b.p.shards, b.tr, b.hooks.wrapTarget)
	} else {
		sys, err = buildInproc(b.seed, b.sizes, b.total, pol, rawBytes, b.tr, b.hooks.wrapTarget)
	}
	if err != nil {
		return err
	}
	b.sys = sys
	ver := make([]int32, len(b.sizes))
	buf := make([]byte, maxSize(b.sizes))
	b.iss = make([]*issuer, b.p.issuers)
	for w := range b.iss {
		w := w
		ds := b.ds[w]
		n := b.p.issuers
		is := &issuer{
			cm: sys.cm, seed: b.seed, sizes: b.sizes, ver: ver,
			pick:       func(r *rng) int { return ds.sample(r)*n + w },
			r:          newRNG(b.seed, 100+uint64(w)),
			writeShare: b.p.writeShare,
			buf:        buf,
			tr:         b.tr,
			reqBase:    uint64(w+1) << 40,
			leak:       b.hooks.leak,
		}
		if w > 0 {
			is.buf = make([]byte, len(buf))
		}
		b.iss[w] = is
	}
	// Warm: a cache-filling prefix of each issuer's own stream, or, for a
	// working set that fits, one write of every object. Dirty objects are
	// replicated on every device and nothing there is ever flushed, so
	// writing everything first starts the run at the footprint it would
	// otherwise creep towards, write by write.
	for w, is := range b.iss {
		is.lane = b.tr.register()
		if b.p.warmOps > 0 {
			for k := 0; k < b.p.warmOps; k++ {
				if err := is.step(); err != nil {
					return err
				}
			}
			continue
		}
		for obj := range b.sizes {
			if obj%b.p.issuers == w {
				if err := is.issue(obj, true); err != nil {
					return err
				}
			}
		}
	}
	for _, is := range b.iss {
		sys.setupNs += is.setupNs
	}
	return nil
}

// setup builds the system p.setups times and keeps the last; set-up time
// is the median, so one slow build does not move it.
func (b *bench) setup() error {
	for i := 0; i < b.p.setups; i++ {
		if b.sys != nil {
			b.sys.close()
			b.sys, b.iss = nil, nil
			runtime.GC()
		}
		if b.traced {
			b.tr = newTracer()
		}
		if err := b.build(); err != nil {
			return err
		}
		b.setupS = append(b.setupS, float64(b.sys.setupNs)/1e9)
	}
	return nil
}

// run executes the measured phase.
func (b *bench) run() error {
	sampleCap := 1 << 18
	runtime.GC()
	quiesce()
	b.start = b.sys.snapshot()
	t0 := time.Now()
	for _, is := range b.iss {
		is.startMeasuring(b.p.virtOps, sampleCap, t0)
	}
	var err error
	switch b.name {
	case "degraded-rebuild":
		err = b.runCycles(t0)
	default:
		err = b.runRounds(t0)
	}
	b.wallNs = int64(time.Since(t0))
	if err != nil {
		return err
	}
	b.end = b.sys.snapshot()
	var sum float64
	var n int
	for _, is := range b.iss {
		sum += is.seSum
		n += is.seN
	}
	b.virtSE = sum / float64(n)
	return nil
}

// runRounds drives every issuer in its own goroutine through whole rounds
// until the run length has passed and its virtual window is complete.
func (b *bench) runRounds(t0 time.Time) error {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		first   error
		pending = len(b.iss)
	)
	for _, is := range b.iss {
		is := is
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := b.issueRounds(is, t0, func() {
				mu.Lock()
				pending--
				if pending == 0 {
					b.virtEnd = b.sys.snapshot()
				}
				mu.Unlock()
			})
			if err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return first
}

func (b *bench) issueRounds(is *issuer, t0 time.Time, virtDone func()) error {
	done := false
	for round := 0; ; round++ {
		if is.virtLeft == 0 && !done {
			done = true
			virtDone()
		}
		if round > 0 && done && time.Since(t0) >= b.seconds {
			return nil
		}
		if is.virtLeft > 0 {
			is.seSum += b.sys.spaceEfficiency()
			is.seN++
		}
		is.traced = b.traced && round%2 == 1
		for k := 0; k < b.p.roundOps; k++ {
			if err := is.step(); err != nil {
				return err
			}
		}
	}
}

// runCycles is the degraded-rebuild loop. Each cycle fails the next
// device, serves requests degraded, inserts a spare, and interleaves one
// rebuild step with each request until the queue drains; then every device
// must be alive and a scrub must find no degraded or lost stripe.
func (b *bench) runCycles(t0 time.Time) error {
	is := b.iss[0]
	st := b.sys.stores[0]
	step := b.hooks.recoverStep
	if step == nil {
		step = func(st *store.Store, n int) (time.Duration, int, bool, error) { return st.RecoverStep(n) }
	}
	for c := 0; ; c++ {
		if c == b.p.virtCycles {
			is.virtLeft = 0
			b.virtEnd = b.sys.snapshot()
		}
		if c >= b.p.virtCycles && time.Since(t0) >= b.seconds {
			b.cycles = c
			return nil
		}
		mode := 0
		if b.traced && c%2 == 1 {
			mode = 1
		}
		is.traced = mode == 1
		dev := c % devices
		t := time.Now()
		if err := st.FailDevice(dev); err != nil {
			return fmt.Errorf("cycle %d: fail device %d: %w", c, dev, err)
		}
		b.extra(is, mode, time.Since(t))
		for k := 0; k < b.p.degradedOps; k++ {
			if err := is.step(); err != nil {
				return fmt.Errorf("cycle %d degraded: %w", c, err)
			}
		}
		// The spare restarts the slot's counters; keep the failed device's.
		addFlash(&b.sys.retired, st.Array().Device(dev).Stats())
		t = time.Now()
		queued, err := st.InsertSpare(dev)
		b.extra(is, mode, time.Since(t))
		if err != nil {
			return fmt.Errorf("cycle %d: insert spare %d: %w", c, dev, err)
		}
		inWindow := c < b.p.virtCycles
		for steps := 0; st.RecoveryActive(); steps++ {
			// Every step takes at least one object off the queue.
			if steps > queued {
				return fmt.Errorf("cycle %d: rebuild did not drain: %d steps for %d queued objects, %d left",
					c, steps, queued, st.RecoveryQueueLen())
			}
			before := b.sys.flash().BytesWritten
			req := is.reqBase + 1<<39 + uint64(b.rb.calls)
			sp := b.tr.beginReq(is.lane, spRecoverStep, req, 0, is.traced)
			t = time.Now()
			cost, rebuilt, _, err := step(st, b.p.stepObjects)
			d := int64(time.Since(t))
			b.tr.endReq(is.lane, sp)
			if err != nil {
				return fmt.Errorf("cycle %d: recover step: %w", c, err)
			}
			b.extra(is, mode, time.Duration(d))
			b.rb.calls++
			b.rb.ns += d
			b.rb.objects += int64(rebuilt)
			b.rb.bytes += b.sys.flash().BytesWritten - before
			if inWindow {
				b.rb.virt += cost
			}
			if err := is.step(); err != nil {
				return fmt.Errorf("cycle %d rebuild: %w", c, err)
			}
		}
		if alive := st.AliveDevices(); alive != devices {
			return fmt.Errorf("cycle %d: %d of %d devices alive after rebuild", c, alive, devices)
		}
		rep, _, err := st.Scrub()
		if err != nil {
			return fmt.Errorf("cycle %d: scrub: %w", c, err)
		}
		if rep.StripesDegraded != 0 || rep.StripesLost != 0 || len(rep.SilentlyCorrupted) != 0 {
			return fmt.Errorf("cycle %d: scrub after rebuild found %d degraded, %d lost, %d corrupted stripes",
				c, rep.StripesDegraded, rep.StripesLost, len(rep.SilentlyCorrupted))
		}
		if inWindow {
			is.seSum += b.sys.spaceEfficiency()
			is.seN++
		}
	}
}

// extra books program time the issuer spent outside cache.Manager calls.
func (b *bench) extra(is *issuer, mode int, d time.Duration) {
	b.extraNs[mode] += int64(d)
	if mode == 0 {
		is.pendingNs += int64(d)
	}
}

// verify checks the program's outputs against the benchmark's own model.
func (b *bench) verify() error {
	var reads, hits int64
	for _, is := range b.iss {
		reads += is.reads
		hits += is.hits
	}
	dr := b.end.cs.Reads - b.start.cs.Reads
	dh := b.end.cs.Hits - b.start.cs.Hits
	if dr != reads || dh != hits {
		return fmt.Errorf("cache stats count %d reads, %d hits; the benchmark issued %d reads and saw %d hits", dr, dh, reads, hits)
	}
	admitted := b.end.cs.AdmittedBytes - b.start.cs.AdmittedBytes
	written := b.end.fl.BytesWritten - b.start.fl.BytesWritten
	if written < admitted {
		return fmt.Errorf("flash wrote %d bytes but the cache admitted %d", written, admitted)
	}
	if b.virtSE <= 0 || b.virtSE > 1 {
		return fmt.Errorf("space efficiency %v outside (0, 1]", b.virtSE)
	}
	if b.sys.ini != nil {
		if err := b.sweep(); err != nil {
			return err
		}
	}
	if n := bufpool.Outstanding(); n != b.start.pool {
		return fmt.Errorf("pooled buffer leases: %d outstanding before the run, %d at quiesce", b.start.pool, n)
	}
	return nil
}

// sweep reads every object once more, byte-checks it, and requires the
// wire's frame leases to balance at quiesce. The wire counts a frame handed
// to a caller as released; verify then checks the caller side through the
// pool's outstanding leases.
func (b *bench) sweep() error {
	is := b.iss[0]
	is.measuring = false
	for obj := range b.sizes {
		if err := is.issue(obj, false); err != nil {
			return fmt.Errorf("final sweep: %w", err)
		}
	}
	if w := quiesce(); w.Leases != w.Releases {
		return fmt.Errorf("wire leases %d != releases %d at quiesce", w.Leases, w.Releases)
	}
	return nil
}

// quiesce waits up to two seconds for the wire's frame leases to balance.
// A server releases a response's buffer only after the flush carrying it
// lands, which can be just after the client has the reply, so an idle
// system may need a moment before its books balance; a lease still open
// after that is a leak.
func quiesce() transport.WireStats {
	w := transport.SnapshotWireStats()
	for i := 0; i < 200 && w.Leases != w.Releases; i++ {
		time.Sleep(10 * time.Millisecond)
		w = transport.SnapshotWireStats()
	}
	return w
}

// opsBlock is the operation count of one throughput block. Blocks are
// short (tens of milliseconds) so that scheduling stalls on a shared host,
// which spoil some blocks of a run, stay out of the median, while a slowdown
// of every operation moves every block. Rare long stalls show in the
// per-layer p99s instead.
const opsBlock = 100

// minBlockSamples keeps at least ten samples beyond the 99th percentile of
// every latency block.
const minBlockSamples = 1000

// percentile is the q-quantile of sorted by the nearest rank.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	return float64(sorted[i])
}

// blockQuantiles cuts each issuer's samples, in the order they were taken,
// into blocks of at least minBlockSamples and returns the q-quantile of
// every block. A machine hiccup spoils one block's tail instead of the
// run's; the run reports the median across blocks.
func blockQuantiles(q float64, parts ...[]int64) []float64 {
	var out []float64
	for _, p := range parts {
		nb := len(p) / minBlockSamples
		if nb == 0 {
			nb = 1
		}
		for i := 0; i < nb; i++ {
			blk := append([]int64(nil), p[i*len(p)/nb:(i+1)*len(p)/nb]...)
			if len(blk) == 0 {
				continue
			}
			sort.Slice(blk, func(a, b int) bool { return blk[a] < blk[b] })
			out = append(out, percentile(blk, q))
		}
	}
	return out
}

// blockRates returns ops per second of program time for every block of
// opsBlock operations (the whole series when it is shorter).
func blockRates(opNs []int64) []float64 {
	n := opsBlock
	if len(opNs) < n {
		n = len(opNs)
	}
	var out []float64
	for i := 0; n > 0 && i+n <= len(opNs); i += n {
		var sum int64
		for _, d := range opNs[i : i+n] {
			sum += d
		}
		out = append(out, float64(n)/(float64(sum)/1e9))
	}
	return out
}

// wallRates returns ops per wall second for every block of opsBlock
// operations between the issuer's marks.
func wallRates(marks []int64) []float64 {
	var out []float64
	prev := int64(0)
	for _, m := range marks {
		out = append(out, opsBlock/(float64(m-prev)/1e9))
		prev = m
	}
	return out
}
