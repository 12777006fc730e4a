package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
)

var workloads = []string{"sim-rw", "wire-hit", "degraded-rebuild"}

// small keeps each test run to a fraction of a second.
func small(p *params) {
	p.objects /= 4
	p.setups = 1
	if p.warmOps > 0 {
		p.warmOps = 300
	}
	if p.virtOps < 1<<62 {
		p.virtOps = 300
	}
	if p.virtCycles > 0 {
		p.virtCycles = 2
	}
	p.roundOps = 100
	p.degradedOps = 20
}

func runWorkload(t *testing.T, name string, trace string, h hooks) (int, result, string) {
	t.Helper()
	if h.shrink == nil {
		h.shrink = small
	}
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--out", t.TempDir()},
		&out, &errOut, h)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s\n%s", name, err, out.String(), errOut.String())
	}
	return code, res, errOut.String()
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestCleanRuns runs every workload untraced and traced and checks that it
// passes its own checks and prints exactly the metrics BENCHMARK.json names.
func TestCleanRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			code, res, stderr := runWorkload(t, w, trace, hooks{})
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace %s: exit %d, result %+v\n%s", w, trace, code, res, stderr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// flipTarget flips one byte of the n-th object it serves.
type flipTarget struct {
	target.Target
	n, at atomic.Int64
}

func (f *flipTarget) GetCtx(rc *reqctx.Ctx, id osd.ObjectID) (*bufpool.Buf, time.Duration, bool, error) {
	buf, cost, degraded, err := f.Target.GetCtx(rc, id)
	if err == nil && f.n.Add(1) == f.at.Load() && buf.Len() > 0 {
		buf.Bytes()[buf.Len()/2] ^= 0x01
	}
	return buf, cost, degraded, err
}

// staleTarget serves, once, the version an object had before a write.
type staleTarget struct {
	target.Target
	mu      sync.Mutex
	old     map[osd.ObjectID][]byte
	pending map[osd.ObjectID]bool
	served  bool
}

func (s *staleTarget) PutCtx(rc *reqctx.Ctx, id osd.ObjectID, data []byte, class osd.Class, dirty bool) (time.Duration, error) {
	s.mu.Lock()
	if dirty && s.old[id] != nil {
		s.pending[id] = true
	}
	s.mu.Unlock()
	return s.Target.PutCtx(rc, id, data, class, dirty)
}

func (s *staleTarget) GetCtx(rc *reqctx.Ctx, id osd.ObjectID) (*bufpool.Buf, time.Duration, bool, error) {
	buf, cost, degraded, err := s.Target.GetCtx(rc, id)
	if err != nil {
		return buf, cost, degraded, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending[id] && !s.served {
		s.served = true
		buf.Release()
		return bufpool.Adopt(append([]byte(nil), s.old[id]...)), cost, degraded, nil
	}
	s.old[id] = append(s.old[id][:0], buf.Bytes()...)
	return buf, cost, degraded, err
}

// leakOnce keeps the buffer of exactly one measured read.
func leakOnce() func(uint64) bool {
	var done atomic.Bool
	return func(uint64) bool { return done.CompareAndSwap(false, true) }
}

type badCase struct {
	name, workload, want string
	h                    func() hooks
}

// TestCheckersCatchBadOutputs breaks the program's outputs from outside and
// requires every run to exit non-zero with the matching complaint.
func TestCheckersCatchBadOutputs(t *testing.T) {
	var cases []badCase
	for _, w := range workloads {
		cases = append(cases,
			badCase{"flipped byte", w, "not version", func() hooks {
				return hooks{wrapTarget: func(t target.Target) target.Target {
					f := &flipTarget{Target: t}
					f.at.Store(50)
					return f
				}}
			}},
			badCase{"stale version", w, "not version", func() hooks {
				return hooks{wrapTarget: func(t target.Target) target.Target {
					return &staleTarget{Target: t, old: map[osd.ObjectID][]byte{}, pending: map[osd.ObjectID]bool{}}
				}}
			}})
	}
	cases = append(cases,
		badCase{"leaked wire lease", "wire-hit", "leases", func() hooks { return hooks{leak: leakOnce()} }},
		badCase{"rebuild never drains", "degraded-rebuild", "did not drain", func() hooks {
			return hooks{recoverStep: func(*store.Store, int) (time.Duration, int, bool, error) { return 0, 0, false, nil }}
		}})
	for _, c := range cases {
		for _, trace := range []string{"0", "1"} {
			code, res, stderr := runWorkload(t, c.workload, trace, c.h())
			if code == 0 || res.Correct {
				t.Errorf("%s on %s (trace %s): exit %d, correct %v; want a failed check", c.name, c.workload, trace, code, res.Correct)
				continue
			}
			if !strings.Contains(stderr, c.want) {
				t.Errorf("%s on %s (trace %s): stderr %q does not mention %q", c.name, c.workload, trace, stderr, c.want)
			}
		}
	}
}

// TestSpanChecks feeds the span checker trees that break its rules.
func TestSpanChecks(t *testing.T) {
	good := []span{
		{name: spCacheRead, parent: -1, req: 7, start: 10, end: 100},
		{name: spLayerOps, parent: 0, req: 7, start: 20, end: 50},
		{name: spLayerOps + 1, parent: 0, req: 7, start: 60, end: 90},
	}
	tr := &tracer{lanes: []*lane{{spans: good}}}
	lt, err := tr.summarize()
	if err != nil {
		t.Fatal(err)
	}
	if got := lt[spCacheRead].selfNs; got != 90-30-30 {
		t.Errorf("cache.read self time %d, want 30", got)
	}
	bad := map[string]func(s []span){
		"child ends after parent": func(s []span) { s[2].end = 120 },
		"child starts before":     func(s []span) { s[1].start = 5 },
		"child has another req":   func(s []span) { s[1].req = 8 },
		"root without request id": func(s []span) { s[0].req = 0; s[1].req = 0; s[2].req = 0 },
		"span never closed":       func(s []span) { s[2].end = 0 },
	}
	for name, breakIt := range bad {
		s := append([]span(nil), good...)
		breakIt(s)
		tr := &tracer{lanes: []*lane{{spans: s}}}
		if _, err := tr.summarize(); err == nil {
			t.Errorf("%s: checker accepted the tree", name)
		}
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b := newDataset(5, 2000, 34375, plateauMed), newDataset(5, 2000, 34375, plateauMed)
	c := newDataset(6, 2000, 34375, plateauMed)
	ra, rb := newRNG(5, 100), newRNG(5, 100)
	for i := 0; i < 1000; i++ {
		if a.sample(ra) != b.sample(rb) {
			t.Fatal("same seed drew different objects")
		}
	}
	same := 0
	for i := range a.sizes {
		if a.sizes[i] != b.sizes[i] {
			t.Fatal("same seed drew different sizes")
		}
		if a.sizes[i] == c.sizes[i] {
			same++
		}
	}
	if same > len(a.sizes)/10 {
		t.Errorf("seeds 5 and 6 share %d of %d sizes", same, len(a.sizes))
	}
	if mean := float64(a.total) / float64(len(a.sizes)); mean < 34375*0.99 || mean > 34375*1.01 {
		t.Errorf("mean size %.0f, want 34375", mean)
	}
	// Flattened-head Zipf: the top tenth of ranks carries most requests.
	r := newRNG(5, 7)
	top := map[int]bool{}
	for _, obj := range a.order[:len(a.order)/10] {
		top[obj] = true
	}
	hits := 0
	for i := 0; i < 20000; i++ {
		if top[a.sample(r)] {
			hits++
		}
	}
	if share := float64(hits) / 20000; share < 0.5 || share > 0.95 {
		t.Errorf("top tenth of objects draws %.2f of requests", share)
	}
}

func TestPayload(t *testing.T) {
	for _, size := range []int{1, 7, 8, 9, 2048, 34375} {
		b := make([]byte, size)
		fillPayload(b, 9, 3, 4)
		if !checkPayload(b, 9, 3, 4, size) {
			t.Fatalf("size %d: payload does not check against itself", size)
		}
		if checkPayload(b, 9, 3, 5, size) || checkPayload(b, 9, 4, 4, size) || checkPayload(b, 10, 3, 4, size) {
			t.Errorf("size %d: payload checks against another (seed, object, version)", size)
		}
		b[size-1] ^= 0x80
		if checkPayload(b, 9, 3, 4, size) {
			t.Errorf("size %d: flipped last byte still checks", size)
		}
	}
}
