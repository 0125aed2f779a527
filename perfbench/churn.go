package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

const (
	coreWidth = 4096 // w of core-churn
	coreNodes = 64   // overlay nodes at set-up
	// churnEvery is the tokens completed between two churn steps.
	churnEvery = 10000
	// churnSize is the nodes one churn step adds or removes.
	churnSize = 4
	// coreWarmup is the tokens each client injects during set-up.
	coreWarmup = 10000
	// maintainRounds bounds MaintainToFixpoint.
	maintainRounds = 64
)

// networkStream is the stream id of the core network's own seed.
const networkStream = 1 << 32

var coreChurn = workload{
	name:      "core-churn",
	fabric:    "in-process",
	every:     churnEvery,
	instances: 10,
	setup: func(cfg config, _ *recorder) (instance, error) {
		return newCoreInstance(cfg)
	},
}

// coreInstance is an in-process core.Network under membership churn.
type coreInstance struct {
	n       *core.Network
	clients []*core.Client
	arr     []*arrivals
	values  valueSet
	done    atomic.Uint64 // tokens completed over the network's life
	m0      core.Metrics
}

// coreSeed derives the network's seed, which also drives which nodes
// RemoveRandomNode picks, from the run's seed.
func coreSeed(seed uint64) int64 {
	return stream(seed, networkStream).Int64()
}

func newCoreInstance(cfg config) (*coreInstance, error) {
	n, err := core.New(core.Config{Width: coreWidth, Seed: coreSeed(cfg.seed), InitialNodes: coreNodes})
	if err != nil {
		return nil, err
	}
	if _, err := n.MaintainToFixpoint(maintainRounds); err != nil {
		return nil, err
	}
	ci := &coreInstance{n: n, clients: make([]*core.Client, cfg.clients), arr: make([]*arrivals, cfg.clients)}
	for c := range ci.clients {
		if ci.clients[c], err = n.NewClient(); err != nil {
			return nil, err
		}
		ci.arr[c] = newArrivals(cfg.seed, c, coreWidth, 1)
	}
	errs := make(chan error, cfg.clients)
	for c := range ci.clients {
		go func(c int) {
			var err error
			for i := 0; i < coreWarmup && err == nil; i++ {
				_, err = ci.call(c)
			}
			errs <- err
		}(c)
	}
	for range ci.clients {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	return ci, err
}

func (ci *coreInstance) call(c int) (int, error) {
	tr, err := ci.clients[c].InjectAt(ci.arr[c].next())
	if err != nil {
		return 0, err
	}
	ci.values.add(tr.Value)
	ci.done.Add(1)
	return 1, nil
}

// step adds churnSize nodes on even steps and removes churnSize random
// nodes on odd ones, then brings the network back to its fixpoint.
func (ci *coreInstance) step(i uint64, ops *opLog) error {
	err := ops.time(opMembership, func() error {
		if i%2 == 0 {
			ci.n.AddNodes(churnSize)
			return nil
		}
		for k := 0; k < churnSize; k++ {
			if _, err := ci.n.RemoveRandomNode(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return ops.time(opMaintain, func() error {
		_, err := ci.n.MaintainToFixpoint(maintainRounds)
		return err
	})
}

func (ci *coreInstance) begin() { ci.m0 = ci.n.Metrics() }

func (ci *coreInstance) layers(ph *phase, _ *recorder, m metrics) {
	d := ci.n.Metrics().Sub(ci.m0)
	steps := len(ph.ops.durs[opMembership])
	m.set("core.wire_hops_per_token", ratio(d.WireHops, d.Tokens))
	m.set("core.lookups_per_token", ratio(d.NameLookups, d.Tokens))
	m.set("core.lookup_hops_per_token", ratio(d.LookupHops, d.Tokens))
	m.set("core.entry_tries_per_token", ratio(d.EntryTries, d.Tokens))
	m.set("core.nbr_cache_hit_ratio", ratio(d.CacheHits, d.CacheHits+d.CacheMisses))
	m.set("chord.lcache_hit_ratio", ratio(d.LCacheHits, d.LCacheHits+d.LCacheMisses))
	m.set("core.maintain_ms_p50", ph.ops.msP(opMaintain, 0.50))
	m.set("core.maintain_ms_p99", ph.ops.msP(opMaintain, 0.99))
	m.set("core.membership_ms_p50", ph.ops.msP(opMembership, 0.50))
	m.set("core.splits_per_step", ratio(d.Splits, steps))
	m.set("core.merges_per_step", ratio(d.Merges, steps))
	m.set("core.moves_per_step", ratio(d.Moves, steps))
}

// check is the core correctness gate: no counter value was handed out
// twice, the network counted exactly the completed tokens, and the
// quiescent output has the step property.
func (ci *coreInstance) check() error {
	if err := ci.values.check(); err != nil {
		return err
	}
	if got, want := ci.n.Metrics().Tokens, ci.done.Load(); got != want {
		return fmt.Errorf("core counted %d tokens, %d completed", got, want)
	}
	return ci.n.CheckStep()
}

func (ci *coreInstance) close() error { return nil }

// valueSet records counter values and detects any value seen twice. Safe
// for concurrent use; memory grows by 128 KiB per 2^20 values of range.
type valueSet struct {
	chunks   [valueChunks]atomic.Pointer[[valueChunkWords]atomic.Uint64]
	dups     atomic.Uint64
	outRange atomic.Uint64
	first    atomic.Uint64 // first repeated value plus one; 0 for none
}

const (
	valueChunkBits  = 20
	valueChunkWords = 1 << valueChunkBits / 64
	valueChunks     = 1 << 14 // values below 2^34
)

func (s *valueSet) add(v uint64) {
	ci := v >> valueChunkBits
	if ci >= valueChunks {
		s.outRange.Add(1)
		return
	}
	ch := s.chunks[ci].Load()
	if ch == nil {
		fresh := new([valueChunkWords]atomic.Uint64)
		if s.chunks[ci].CompareAndSwap(nil, fresh) {
			ch = fresh
		} else {
			ch = s.chunks[ci].Load()
		}
	}
	off := v & (1<<valueChunkBits - 1)
	word, bit := &ch[off/64], uint64(1)<<(off%64)
	for {
		old := word.Load()
		if old&bit != 0 {
			s.dups.Add(1)
			s.first.CompareAndSwap(0, v+1)
			return
		}
		if word.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// check fails when a value repeated or fell outside the tracked range.
func (s *valueSet) check() error {
	if d := s.dups.Load(); d > 0 {
		return fmt.Errorf("%d counter values handed out twice, first %d", d, s.first.Load()-1)
	}
	if o := s.outRange.Load(); o > 0 {
		return fmt.Errorf("%d counter values beyond the checked range", o)
	}
	return nil
}
