package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/target"
)

// Spans are recorded from the benchmark's side of each layer boundary: the
// issuer opens a root span around every cache.Manager call (and around
// Store.RecoverStep), and decorators on the target.Target seams open child
// spans around every call that crosses them. Nothing inside the program
// changes, so time spent below a seam (stripe, erasure and flash under the
// store; the remote store under the transport) stays inside that seam's span.

// Span names. The layer is the prefix before the first dot.
const (
	spCacheRead = iota
	spCacheWrite
	spRecoverStep
	spLayerOps // first decorated-op name; see opNames
)

// Decorated layers and operations.
const (
	layerStore = iota
	layerCluster
	layerTransport
	numLayers
)

var layerNames = [numLayers]string{"store", "cluster", "transport"}

const (
	opGet = iota
	opPut
	opWriteRange
	opDelete
	opMarkClean
	opReclassify
	opGetBatch
	opPutBatch
	numOps
)

var opNames = [numOps]string{"get", "put", "write_range", "delete", "markclean", "reclassify", "get_batch", "put_batch"}

func spanName(i int) string {
	switch i {
	case spCacheRead:
		return "cache.read"
	case spCacheWrite:
		return "cache.write"
	case spRecoverStep:
		return "store.recover_step"
	}
	i -= spLayerOps
	return layerNames[i/numOps] + "." + opNames[i%numOps]
}

const numSpanNames = spLayerOps + numLayers*numOps

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; parent indexes the same lane's span slice (-1 for a root).
type span struct {
	name       uint8
	parent     int32
	req        uint64
	start, end int64
}

// lane is one issuer's span log. Only the issuer's goroutine writes it
// while the run is live.
type lane struct {
	spans []span
	stack []int32
	// cur is the reqctx ID of the request in flight (0 when none) and
	// traced whether it is traced; decorators read them from the
	// goroutine serving that request.
	cur    atomic.Uint64
	traced atomic.Bool
}

// tracer owns the lanes. A nil *tracer is valid and records nothing.
//
// A decorated call is attributed to the request whose reqctx it carries.
// Calls the cache manager makes under a context of its own (flushes,
// evictions) carry none of the issuers' IDs; with a single issuer they
// still belong to its request, since the synchronous refresh and the
// in-place flash layout run every target call on the issuing goroutine.
// With several issuers such calls are counted as unattributed and their
// time stays in the parent's self time.
type tracer struct {
	epoch time.Time
	lanes []*lane // fixed before the measured phase starts
	// active counts lanes inside a traced request; decorators skip the
	// lookup entirely while it is zero.
	active       atomic.Int32
	unattributed atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// register adds a lane; call it before any issuer goroutine starts.
func (t *tracer) register() *lane {
	if t == nil {
		return nil
	}
	l := &lane{spans: make([]span, 0, 1<<16)}
	t.lanes = append(t.lanes, l)
	return l
}

// beginReq marks the lane as serving the request with reqctx ID rcID. When
// traced it opens a root span for request req and returns its index;
// otherwise it returns -1.
func (t *tracer) beginReq(l *lane, name int, req, rcID uint64, traced bool) int32 {
	if t == nil {
		return -1
	}
	l.cur.Store(rcID)
	if !traced {
		return -1
	}
	idx := int32(len(l.spans))
	l.spans = append(l.spans, span{name: uint8(name), parent: -1, req: req, start: t.now()})
	l.stack = append(l.stack[:0], idx)
	l.traced.Store(true)
	t.active.Add(1)
	return idx
}

func (t *tracer) endReq(l *lane, idx int32) {
	if t == nil {
		return
	}
	l.cur.Store(0)
	if idx < 0 {
		return
	}
	l.spans[idx].end = t.now()
	l.stack = l.stack[:0]
	l.traced.Store(false)
	t.active.Add(-1)
}

// child opens a span under the innermost open span of the request that
// rc belongs to. It returns the lane (nil when the call is not part of a
// traced request).
func (t *tracer) child(name int, rc *reqctx.Ctx) (*lane, int32) {
	if t == nil || t.active.Load() == 0 {
		return nil, -1
	}
	var l *lane
	if len(t.lanes) == 1 {
		l = t.lanes[0]
	} else {
		id := rc.ID()
		for _, c := range t.lanes {
			if id != 0 && c.cur.Load() == id {
				l = c
				break
			}
		}
		if l == nil {
			t.unattributed.Add(1)
			return nil, -1
		}
	}
	if !l.traced.Load() {
		return nil, -1
	}
	parent := l.stack[len(l.stack)-1]
	idx := int32(len(l.spans))
	l.spans = append(l.spans, span{name: uint8(name), parent: parent, req: l.spans[parent].req, start: t.now()})
	l.stack = append(l.stack, idx)
	return l, idx
}

func (t *tracer) endChild(l *lane, idx int32) {
	if l == nil {
		return
	}
	l.spans[idx].end = t.now()
	l.stack = l.stack[:len(l.stack)-1]
}

// layerTime aggregates one span name.
type layerTime struct {
	calls  int64
	selfNs int64
	durNs  int64
}

// summarize checks the span tree and computes per-name self time: a span's
// duration minus the part of it its children cover. Children of one span
// run on the same goroutine one after another, so their durations add.
func (t *tracer) summarize() ([numSpanNames]layerTime, error) {
	var out [numSpanNames]layerTime
	for li, l := range t.lanes {
		childNs := make([]int64, len(l.spans))
		for i := len(l.spans) - 1; i >= 0; i-- {
			s := l.spans[i]
			if s.end < s.start {
				return out, fmt.Errorf("trace: lane %d span %d (%s) never closed", li, i, spanName(int(s.name)))
			}
			if s.parent >= 0 {
				p := l.spans[s.parent]
				if int(s.parent) >= i || s.start < p.start || s.end > p.end || s.req != p.req {
					return out, fmt.Errorf("trace: lane %d span %d (%s req %d [%d,%d]) not inside parent %d (%s req %d [%d,%d])",
						li, i, spanName(int(s.name)), s.req, s.start, s.end,
						s.parent, spanName(int(p.name)), p.req, p.start, p.end)
				}
				childNs[s.parent] += s.end - s.start
			} else if s.req == 0 {
				return out, fmt.Errorf("trace: lane %d root span %d has no request id", li, i)
			}
		}
		for i, s := range l.spans {
			a := &out[s.name]
			a.calls++
			a.durNs += s.end - s.start
			a.selfNs += s.end - s.start - childNs[i]
		}
	}
	return out, nil
}

// dump writes every span as JSON: a name table and one array per span,
// [lane, index, parent, request, name, start_ns, end_ns].
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	names := make([]string, numSpanNames)
	for i := range names {
		names[i] = fmt.Sprintf("%q", spanName(i))
	}
	fmt.Fprintf(w, "{\"names\":[%s],\n\"spans\":[", strings.Join(names, ","))
	first := true
	for li, l := range t.lanes {
		for i, s := range l.spans {
			if !first {
				io.WriteString(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d,%d]", li, i, s.parent, s.req, s.name, s.start, s.end)
		}
	}
	io.WriteString(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCount is the number of spans recorded across lanes.
func (t *tracer) spanCount() int {
	n := 0
	for _, l := range t.lanes {
		n += len(l.spans)
	}
	return n
}

// tracedTarget decorates a target.Target seam: every call becomes a child
// span of the calling request, and degraded reads are counted. It forwards
// the optional surfaces the cache manager and cluster initiator probe for
// (vectored ops, the on-demand gauge, inventory listing and Close).
type tracedTarget struct {
	inner    target.Target
	layer    int
	tr       *tracer
	degraded atomic.Int64
}

var (
	_ target.Target      = (*tracedTarget)(nil)
	_ target.BatchTarget = (*tracedTarget)(nil)
)

func newTracedTarget(inner target.Target, layer int, tr *tracer) *tracedTarget {
	return &tracedTarget{inner: inner, layer: layer, tr: tr}
}

func (d *tracedTarget) begin(op int, rc *reqctx.Ctx) (*lane, int32) {
	return d.tr.child(spLayerOps+d.layer*numOps+op, rc)
}

func (d *tracedTarget) PutCtx(rc *reqctx.Ctx, id osd.ObjectID, data []byte, class osd.Class, dirty bool) (time.Duration, error) {
	l, s := d.begin(opPut, rc)
	cost, err := d.inner.PutCtx(rc, id, data, class, dirty)
	d.tr.endChild(l, s)
	return cost, err
}

func (d *tracedTarget) WriteRangeCtx(rc *reqctx.Ctx, id osd.ObjectID, offset int64, data []byte) (time.Duration, error) {
	l, s := d.begin(opWriteRange, rc)
	cost, err := d.inner.WriteRangeCtx(rc, id, offset, data)
	d.tr.endChild(l, s)
	return cost, err
}

func (d *tracedTarget) GetCtx(rc *reqctx.Ctx, id osd.ObjectID) (*bufpool.Buf, time.Duration, bool, error) {
	l, s := d.begin(opGet, rc)
	buf, cost, degraded, err := d.inner.GetCtx(rc, id)
	d.tr.endChild(l, s)
	if degraded && err == nil {
		d.degraded.Add(1)
	}
	return buf, cost, degraded, err
}

func (d *tracedTarget) Delete(id osd.ObjectID) error { return d.DeleteCtx(nil, id) }

func (d *tracedTarget) DeleteCtx(rc *reqctx.Ctx, id osd.ObjectID) error {
	l, s := d.begin(opDelete, rc)
	err := d.inner.DeleteCtx(rc, id)
	d.tr.endChild(l, s)
	return err
}

func (d *tracedTarget) MarkClean(id osd.ObjectID) error { return d.MarkCleanCtx(nil, id) }

func (d *tracedTarget) MarkCleanCtx(rc *reqctx.Ctx, id osd.ObjectID) error {
	l, s := d.begin(opMarkClean, rc)
	err := d.inner.MarkCleanCtx(rc, id)
	d.tr.endChild(l, s)
	return err
}

func (d *tracedTarget) ReclassifyCtx(rc *reqctx.Ctx, id osd.ObjectID, class osd.Class) (time.Duration, error) {
	l, s := d.begin(opReclassify, rc)
	cost, err := d.inner.ReclassifyCtx(rc, id, class)
	d.tr.endChild(l, s)
	return cost, err
}

func (d *tracedTarget) GetBatchCtx(rc *reqctx.Ctx, ids []osd.ObjectID) []target.BatchGetResult {
	l, s := d.begin(opGetBatch, rc)
	out := target.GetBatch(d.inner, rc, ids)
	d.tr.endChild(l, s)
	for i := range out {
		if out[i].Degraded && out[i].Err == nil {
			d.degraded.Add(1)
		}
	}
	return out
}

func (d *tracedTarget) PutBatchCtx(rc *reqctx.Ctx, ops []target.BatchPut) []target.BatchPutResult {
	l, s := d.begin(opPutBatch, rc)
	out := target.PutBatch(d.inner, rc, ops)
	d.tr.endChild(l, s)
	return out
}

func (d *tracedTarget) Policy() policy.Policy { return d.inner.Policy() }
func (d *tracedTarget) RawCapacity() int64    { return d.inner.RawCapacity() }
func (d *tracedTarget) AliveDevices() int     { return d.inner.AliveDevices() }
func (d *tracedTarget) Devices() int          { return d.inner.Devices() }

// OnDemandInFlight forwards the store's gauge; targets without one report 0,
// which is what the cache manager assumes when the gauge is absent.
func (d *tracedTarget) OnDemandInFlight() int64 {
	if g, ok := d.inner.(interface{ OnDemandInFlight() int64 }); ok {
		return g.OnDemandInFlight()
	}
	return 0
}

// ListObjects forwards inventory listing so a cluster initiator adopts a
// decorated shard exactly as it would the bare one.
func (d *tracedTarget) ListObjects() ([]osd.Info, error) {
	switch v := d.inner.(type) {
	case interface{ ListObjects() []osd.Info }:
		return v.ListObjects(), nil
	case interface{ ListObjects() ([]osd.Info, error) }:
		return v.ListObjects()
	}
	return nil, nil
}

// Close forwards to the decorated target when it is closeable.
func (d *tracedTarget) Close() error {
	if c, ok := d.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
