package main

import (
	"fmt"
	"time"

	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
)

func objectID(obj int) osd.ObjectID {
	return osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + uint64(obj)}
}

// virt accumulates the paper's figures on the virtual clock over a fixed
// window of operations, so they repeat exactly for a seed whatever the
// machine's speed.
type virt struct {
	ops, reads, hits int64
	bytes            int64
	lat, busy        time.Duration // client latency; latency + background work
}

// issuer is one closed-loop client: it issues the next operation only after
// the previous one returned. Payload generation and byte checks happen
// outside the timed call.
type issuer struct {
	cm    *cache.Manager
	seed  uint64
	sizes []int
	// ver is the last acknowledged version of every object; objects are
	// owned by exactly one issuer, so each slot has a single writer.
	ver        []int32
	pick       func(*rng) int
	r          *rng
	writeShare float64
	buf        []byte
	tr         *tracer
	lane       *lane
	reqBase    uint64
	reqs       uint64
	// leak, when set, keeps a measured read's pooled buffer (checker tests).
	leak func(n uint64) bool

	measuring bool
	traced    bool // the next operations are traced (traced runs only)
	virtLeft  int64

	// Operations attempted in the measured phase; failed ones are also
	// counted in failed and nowhere else.
	ops, reads, writes, hits, failed int64
	callNs                           [2]int64 // untraced, traced
	opsBy                            [2]int64
	readNs, writeNs                  []int64
	// opNs is the program time of every untraced operation in order,
	// including program calls the workload made since the previous one
	// (pendingNs); marks is the wall time since t0 at every opsBlock-th
	// operation.
	opNs      []int64
	pendingNs int64
	marks     []int64
	t0        time.Time
	v         virt
	// seSum/seN sample the stores' space efficiency across the virtual
	// window; a single end-of-window snapshot swings with whichever
	// dirty replicas happen to be resident at that instant.
	seSum   float64
	seN     int
	setupNs int64
}

// step issues the next operation of the issuer's stream.
func (is *issuer) step() error {
	obj := is.pick(is.r)
	return is.issue(obj, is.r.float() < is.writeShare)
}

func (is *issuer) issue(obj int, write bool) error {
	id := objectID(obj)
	size := is.sizes[obj]
	is.reqs++
	req := is.reqBase + is.reqs
	var (
		res cache.Result
		err error
		d   time.Duration
		ver = int(is.ver[obj])
	)
	// Every request carries its own context, as a client of the public
	// ReadCtx/WriteCtx API would; its ID ties decorated calls to the
	// request in traced runs.
	rc := reqctx.Acquire(nil)
	if write {
		ver++
		b := is.buf[:size]
		fillPayload(b, is.seed, obj, ver)
		sp := is.tr.beginReq(is.lane, spCacheWrite, req, rc.ID(), is.traced)
		t0 := time.Now()
		res, err = is.cm.WriteCtx(rc, id, b)
		d = time.Since(t0)
		is.tr.endReq(is.lane, sp)
		reqctx.Release(rc)
		if err == nil {
			is.ver[obj] = int32(ver)
		}
	} else {
		sp := is.tr.beginReq(is.lane, spCacheRead, req, rc.ID(), is.traced)
		t0 := time.Now()
		res, err = is.cm.ReadCtx(rc, id)
		d = time.Since(t0)
		is.tr.endReq(is.lane, sp)
		reqctx.Release(rc)
		if err == nil {
			ok := checkPayload(res.Data, is.seed, obj, ver, size)
			if is.leak == nil || !is.measuring || !is.leak(is.reqs) {
				res.Release()
			}
			if !ok {
				return fmt.Errorf("read of object %d returned %d bytes that are not version %d (%d bytes)",
					obj, len(res.Data), ver, size)
			}
		}
	}
	if !is.measuring {
		is.setupNs += int64(d)
		if err != nil {
			return fmt.Errorf("set-up operation on object %d: %w", obj, err)
		}
		return nil
	}
	is.ops++
	if write {
		is.writes++
	} else {
		is.reads++
	}
	if err != nil {
		is.failed++
		return nil
	}
	mode := 0
	if is.traced {
		mode = 1
	}
	is.callNs[mode] += int64(d)
	is.opsBy[mode]++
	if !is.traced {
		is.opNs = append(is.opNs, int64(d)+is.pendingNs)
		is.pendingNs = 0
	}
	if is.ops%opsBlock == 0 {
		is.marks = append(is.marks, int64(time.Since(is.t0)))
	}
	if write {
		if !is.traced {
			is.writeNs = append(is.writeNs, int64(d))
		}
	} else {
		if res.Hit {
			is.hits++
		}
		if !is.traced {
			is.readNs = append(is.readNs, int64(d))
		}
	}
	if is.virtLeft > 0 {
		is.virtLeft--
		is.v.ops++
		if !write {
			is.v.reads++
			if res.Hit {
				is.v.hits++
			}
		}
		is.v.bytes += res.Bytes
		is.v.lat += res.Latency
		is.v.busy += res.Latency + res.Background
	}
	return nil
}

// startMeasuring resets the issuer for the measured phase.
func (is *issuer) startMeasuring(virtOps int64, sampleCap int, t0 time.Time) {
	is.measuring = true
	is.virtLeft = virtOps
	is.readNs = make([]int64, 0, sampleCap)
	is.writeNs = make([]int64, 0, sampleCap/2)
	is.opNs = make([]int64, 0, sampleCap)
	is.t0 = t0
}
