package main

import (
	"fmt"
	"net"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/cluster"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/hdd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
	"github.com/reo-cache/reo/internal/transport"
)

// Scaled like the paper suite's documented scale (1/128): 4.4 MB mean
// objects become ~34 KB, 64 KiB stripe chunks become 512 B, and the 4 KiB
// metadata objects shrink to the 64 B floor.
const (
	devices      = 5
	scaledMean   = 4_400_000 / 128
	chunkBytes   = 512
	metadataSize = 64
)

// system is one cache server: stores (one, or one per shard), the backend
// and the cache manager, plus the seams the traced run decorates.
type system struct {
	stores  []*store.Store
	be      *backend.Store
	cm      *cache.Manager
	top     *tracedTarget // decorator on the target handed to the cache
	ini     *cluster.Initiator
	servers []*transport.Server
	// retired holds the IO counters of devices replaced by spares, whose
	// own counters restart at zero.
	retired flash.Stats
	setupNs int64
}

// timed runs f and adds its wall time to the system's set-up time.
func (s *system) timed(f func() error) error {
	t0 := time.Now()
	err := f()
	s.setupNs += int64(time.Since(t0))
	return err
}

func newStore(pol policy.Reo, rawBytes int64) (*store.Store, error) {
	return store.New(store.Config{
		Devices:            devices,
		DeviceSpec:         flash.Intel540s((rawBytes + devices - 1) / devices),
		ChunkSize:          chunkBytes,
		Policy:             pol,
		RedundancyBudget:   pol.ParityBudget,
		MetadataObjectSize: metadataSize,
	})
}

// preload writes version 0 of every object to a fresh backend.
func (s *system) preload(seed uint64, sizes []int, total int64) error {
	if err := s.timed(func() error { s.be = backend.New(hdd.WD1TB(4 * total)); return nil }); err != nil {
		return err
	}
	buf := make([]byte, maxSize(sizes))
	for obj, size := range sizes {
		b := buf[:size]
		fillPayload(b, seed, obj, 0)
		if err := s.timed(func() error { _, err := s.be.Put(objectID(obj), b); return err }); err != nil {
			return fmt.Errorf("preload object %d: %w", obj, err)
		}
	}
	return nil
}

func (s *system) newCache(t target.Target) error {
	return s.timed(func() error {
		cm, err := cache.New(cache.Config{
			Store:            t,
			Backend:          s.be,
			NetworkBandwidth: 1.25e9, // 10GbE
			NetworkRTT:       100 * time.Microsecond,
			RefreshInterval:  500,
		})
		s.cm = cm
		return err
	})
}

// buildInproc assembles an in-process cache server over one store. With a
// tracer, the store is decorated before the cache sees it; wrap, when set,
// goes in front of that (checker tests).
func buildInproc(seed uint64, sizes []int, total int64, pol policy.Reo, rawBytes int64,
	tr *tracer, wrap func(target.Target) target.Target) (*system, error) {
	s := &system{}
	var st *store.Store
	if err := s.timed(func() (err error) { st, err = newStore(pol, rawBytes); return err }); err != nil {
		return nil, err
	}
	s.stores = []*store.Store{st}
	if err := s.preload(seed, sizes, total); err != nil {
		return nil, err
	}
	var t target.Target = st
	if tr != nil {
		s.top = newTracedTarget(st, layerStore, tr)
		t = s.top
	}
	if wrap != nil {
		t = wrap(t)
	}
	if err := s.newCache(t); err != nil {
		return nil, err
	}
	return s, nil
}

// buildCluster assembles a cluster.Initiator over shards stores, each
// served by a loopback transport server and reached over one connection.
func buildCluster(seed uint64, sizes []int, total int64, pol policy.Reo, rawBytes int64, shards int,
	tr *tracer, wrap func(target.Target) target.Target) (*system, error) {
	s := &system{}
	members := make([]cluster.Shard, 0, shards)
	for i := 0; i < shards; i++ {
		err := s.timed(func() error {
			st, err := newStore(pol, rawBytes/int64(shards))
			if err != nil {
				return err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			s.stores = append(s.stores, st)
			s.servers = append(s.servers, transport.NewServer(st, ln))
			rt, err := transport.DialRemoteTargetPool(ln.Addr().String(), 1)
			if err != nil {
				return err
			}
			var t target.Target = rt
			if tr != nil {
				t = newTracedTarget(rt, layerTransport, tr)
			}
			members = append(members, cluster.Shard{Name: fmt.Sprintf("shard-%d", i), Target: t})
			return nil
		})
		if err != nil {
			s.close()
			return nil, err
		}
	}
	if err := s.timed(func() (err error) { s.ini, err = cluster.New(cluster.Config{Shards: members}); return err }); err != nil {
		s.close()
		return nil, err
	}
	if err := s.preload(seed, sizes, total); err != nil {
		s.close()
		return nil, err
	}
	var t target.Target = s.ini
	if tr != nil {
		s.top = newTracedTarget(s.ini, layerCluster, tr)
		t = s.top
	}
	if wrap != nil {
		t = wrap(t)
	}
	if err := s.newCache(t); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the cluster's connections and servers and waits for them.
func (s *system) close() {
	if s.ini != nil {
		_ = s.ini.Close() // closes every shard's remote target
	}
	for _, srv := range s.servers {
		_ = srv.Close()
	}
}

// flash sums the IO counters of every device ever in the system.
func (s *system) flash() flash.Stats {
	t := s.retired
	for _, st := range s.stores {
		for i := 0; i < st.Array().N(); i++ {
			addFlash(&t, st.Array().Device(i).Stats())
		}
	}
	return t
}

func addFlash(t *flash.Stats, d flash.Stats) {
	t.ReadOps += d.ReadOps
	t.WriteOps += d.WriteOps
	t.BytesRead += d.BytesRead
	t.BytesWritten += d.BytesWritten
}

// spaceEfficiency is the stores' mean user share of used flash.
func (s *system) spaceEfficiency() float64 {
	var sum float64
	for _, st := range s.stores {
		sum += st.SpaceEfficiency()
	}
	return sum / float64(len(s.stores))
}

func maxSize(sizes []int) int {
	m := 0
	for _, s := range sizes {
		if s > m {
			m = s
		}
	}
	return m
}
