package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/chord"
	"repro/internal/obs"
	"repro/internal/tree"
)

// TokenTrace reports the per-token protocol costs of one injection.
type TokenTrace struct {
	// Value is the counter value the token carries out: for the m-th token
	// emitted on output wire j, the value is m*w + j.
	Value uint64
	// OutWire is the network output wire.
	OutWire int
	// EntryTries is the number of names tried to find a live input
	// component (Section 3.5: at most log(w)-1).
	EntryTries int
	// WireHops is the number of components the token passed through.
	WireHops int
	// NameLookups is the number of DHT lookups issued for this token.
	NameLookups int
	// LookupHops is the number of overlay hops those lookups cost.
	LookupHops int
	// CacheHits and CacheMisses count out-neighbor cache use.
	CacheHits, CacheMisses int
	// LCacheHits and LCacheMisses count DHT lookup-cache use: a hit
	// resolved a name with zero overlay messages (and is therefore not
	// counted in NameLookups/LookupHops), a miss fell through to a real
	// metered lookup.
	LCacheHits, LCacheMisses int
}

// Client injects tokens into the network. It remembers the input component
// it last used (Section 3.5: "if it remembers the component that it had
// sent its previous tokens to") and issues its DHT lookups from a fixed
// overlay node, the client's access point.
//
// A Client is not safe for concurrent use — it models one token-issuing
// process. Concurrent load comes from many clients: each goroutine makes
// its own with NewClient, and their injections proceed in parallel (tokens
// hold the network's structural lock only in read mode).
type Client struct {
	net       *Network
	rng       *rand.Rand
	at        chord.NodeID
	lastEntry tree.Path
	hasLast   bool
	// adapt, when set by UseAdapt, sizes InjectBatch's sub-batch windows
	// from the controller's live recommendation.
	adapt *adapt.Controller
}

// UseAdapt installs a batch-size controller: InjectBatch consults its
// recommendation on entry and processes the batch in windows of that
// size, so a long burst adapts at window granularity instead of routing
// as one monolithic group. Pass nil to detach. Like every Client method
// this is not safe for concurrent use on one Client.
func (c *Client) UseAdapt(ctrl *adapt.Controller) { c.adapt = ctrl }

// NewClient creates a client whose lookups start at a random overlay node.
func (n *Network) NewClient() (*Client, error) {
	n.rngMu.Lock()
	at, err := n.ring.RandomNode(n.rng)
	seed := n.rng.Int63()
	n.rngMu.Unlock()
	if err != nil {
		return nil, err
	}
	return &Client{net: n, rng: rand.New(rand.NewSource(seed)), at: at}, nil
}

// Inject sends one token into a random input wire and returns its trace.
func (c *Client) Inject() (TokenTrace, error) {
	return c.InjectAt(c.rng.Intn(c.net.cfg.Width))
}

// InjectAt sends one token into the given network input wire.
//
// The traversal is designed to run concurrently with other tokens: the
// structural lock is held in read mode (tokens never exclude each other),
// the topology is resolved against the current epoch snapshot, wire
// assignment is the component's lock-free fetch-add, and all counters are
// atomics. The only cross-token write contention is CAS retries on shared
// balancers and the per-component out-neighbor cache stripe.
func (c *Client) InjectAt(in int) (TokenTrace, error) {
	n := c.net
	if in < 0 || in >= n.cfg.Width {
		return TokenTrace{}, fmt.Errorf("core: input wire %d out of range [0,%d)", in, n.cfg.Width)
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	t := n.topo.Load()

	if !n.ring.Contains(c.at) {
		// The client's access point left; reattach to a random node.
		at, err := n.ring.RandomNode(c.rng)
		if err != nil {
			return TokenTrace{}, err
		}
		c.at = at
	}

	sp := n.tracer.Start("token")
	var start time.Time
	if sp != nil || n.hTokE2E != nil {
		start = time.Now()
	}

	var tr TokenTrace
	lc, err := n.findEntry(t, c, in, &tr, sp)
	if err != nil {
		return TokenTrace{}, err
	}
	n.injected[in].Add(1)
	n.metrics.tokens.Add(1)

	for {
		tr.WireHops++
		lc.node.tokens.Add(1)
		o, ok := lc.st.TryStep()
		if !ok {
			// Unreachable: core freezes components only under the exclusive
			// structural lock, which cannot be held while tokens traverse.
			return TokenTrace{}, fmt.Errorf("core: component %v frozen mid-route", lc.st.Comp)
		}
		if sp != nil {
			sp.Event("comp", string(lc.st.Comp.Path), int64(o))
		}
		next, exited, netOut, err := n.resolveNext(t, lc, o, &tr, sp)
		if err != nil {
			return TokenTrace{}, err
		}
		if exited {
			tr.OutWire = netOut
			m := n.out[netOut].Add(1) - 1
			tr.Value = m*uint64(n.cfg.Width) + uint64(netOut)
			n.mergeTrace(tr)
			if n.hTokE2E != nil {
				n.hTokE2E.Observe(time.Since(start).Seconds())
				n.hTokWire.Observe(float64(tr.WireHops))
				n.hTokLook.Observe(float64(tr.NameLookups))
				n.hTokTry.Observe(float64(tr.EntryTries))
			}
			if sp != nil {
				sp.Event("exit", fmt.Sprintf("wire %d value %d", netOut, tr.Value), int64(tr.WireHops))
				sp.Finish()
			}
			return tr, nil
		}
		lc = next
	}
}

// mergeTrace folds a token trace into the cumulative metrics.
func (n *Network) mergeTrace(tr TokenTrace) {
	n.metrics.wireHops.Add(uint64(tr.WireHops))
	n.metrics.nameLookups.Add(uint64(tr.NameLookups))
	n.metrics.lookupHops.Add(uint64(tr.LookupHops))
	n.metrics.entryTries.Add(uint64(tr.EntryTries))
	n.metrics.cacheHits.Add(uint64(tr.CacheHits))
	n.metrics.cacheMisses.Add(uint64(tr.CacheMisses))
	n.metrics.lcacheHits.Add(uint64(tr.LCacheHits))
	n.metrics.lcacheMisses.Add(uint64(tr.LCacheMisses))
}

// lookup meters one DHT lookup for the component name at path p issued
// from node at, and returns the component if it is live in snapshot t
// (nil otherwise). The lookup cache absorbs repeat resolutions: a
// hit costs zero overlay messages and is excluded from the
// NameLookups/LookupHops meters, which count only lookups the ring
// actually performed.
func (n *Network) lookup(t *topology, at chord.NodeID, p tree.Path, tr *TokenTrace, sp *obs.Span) (*liveComp, error) {
	key := string(p)
	_, v, ok := n.lcache.Get(key)
	if ok {
		tr.LCacheHits++
		if sp != nil {
			sp.Event("lookup-cached", key, 0)
		}
		return t.comps[p], nil
	}
	c, err := tree.ComponentAt(n.cfg.Width, p)
	if err != nil {
		return nil, err
	}
	owner, hops, err := n.ring.Lookup(at, chord.Hash(c.Name()))
	if err != nil {
		return nil, err
	}
	tr.NameLookups++
	tr.LookupHops += hops
	if n.lcache != nil {
		tr.LCacheMisses++
		// v carries the pre-lookup membership version; Put drops the entry
		// if churn raced the lookup.
		n.lcache.Put(v, key, owner)
	}
	if sp != nil {
		sp.Event("lookup", key, int64(hops))
	}
	return t.comps[p], nil
}

// findEntry locates the live input component covering input wire in by
// trying names on the input balancer's ancestor chain (Section 3.5 bounds
// this by the chain length).
func (n *Network) findEntry(t *topology, c *Client, in int, tr *TokenTrace, sp *obs.Span) (*liveComp, error) {
	// The input balancer for wire in is a pure function of the width,
	// precomputed at construction.
	leaf := n.entryLeaf[in]
	maxLevel := len(leaf)

	try := func(p tree.Path) (*liveComp, error) {
		tr.EntryTries++
		if sp != nil {
			sp.Event("entry-try", string(p), 0)
		}
		lc, err := n.lookup(t, c.at, p, tr, sp)
		if lc != nil {
			c.lastEntry, c.hasLast = p, true
		}
		return lc, err
	}

	// The unique live component covering the leaf is at exactly one level
	// of its ancestor chain. A client that remembers where its previous
	// token entered tries that level first, then zigzags outward — in
	// steady state one try suffices; a fresh client walks the chain from
	// the leaf upward (at most log(w) tries, Section 3.5). The tried-set
	// is a bitmask: levels are < 64 for any realizable width.
	if c.hasLast {
		last := len(c.lastEntry)
		var tried uint64
		for delta := 0; delta <= maxLevel; delta++ {
			for _, lvl := range []int{last + delta, last - delta} {
				if lvl < 0 || lvl > maxLevel || tried&(1<<uint(lvl)) != 0 {
					continue
				}
				tried |= 1 << uint(lvl)
				lc, err := try(leaf[:lvl])
				if lc != nil || err != nil {
					return lc, err
				}
				if delta == 0 {
					break // the two candidates coincide
				}
			}
		}
		return nil, fmt.Errorf("core: no input component covers wire %d", in)
	}

	for lvl := maxLevel; lvl >= 0; lvl-- {
		lc, err := try(leaf[:lvl])
		if lc != nil || err != nil {
			return lc, err
		}
	}
	return nil, fmt.Errorf("core: no input component covers wire %d", in)
}

// chainPool recycles the candidate-chain scratch slices of resolveNext:
// forwarding is the hottest loop in the system and the chain is the only
// per-hop slice it needs.
var chainPool = sync.Pool{
	New: func() any {
		s := make([]tree.Component, 0, 16)
		return &s
	},
}

// resolveNext resolves where a token leaving component lc on output wire
// o goes, using and maintaining lc's out-neighbor address cache.
//
// The wire algebra (climbing out of parents, descending into the sibling
// subtree) is pure local computation; the DHT is needed only to learn
// which component of the candidate chain is live and where it is hosted. A
// warm cache therefore forwards with zero lookups: the sender computes the
// candidate chain, finds a cached neighbor on it, and sends directly; a
// stale entry bounces (metered as a cache miss) and triggers a fresh
// resolution.
func (n *Network) resolveNext(t *topology, lc *liveComp, o int, tr *TokenTrace, sp *obs.Span) (next *liveComp, exited bool, netOut int, err error) {
	// Fast path: the per-wire destination memo. A network exit is pure
	// wire algebra and never goes stale; a memoized neighbor is used while
	// its stamps hold or it is still live on the snapshot at the cached
	// host (the §3.5 "direct send" succeeding), otherwise it bounces like
	// any stale cache entry and the wire is re-resolved below. With
	// DisableCache the memo is never written, so every wire resolves cold.
	lc.nbrsMu.Lock()
	if o < len(lc.wires) {
		d := &lc.wires[o]
		if d.exit {
			netOut = d.netOut
			lc.nbrsMu.Unlock()
			return nil, true, netOut, nil
		}
		if to := d.to; to != nil {
			next, miss := lc.nextLocked(t, d)
			lc.nbrsMu.Unlock()
			if next != nil {
				tr.CacheHits++
				if sp != nil {
					sp.Event("cache-hit", string(next.st.Comp.Path), 0)
				}
				return next, false, 0, nil
			}
			if miss {
				tr.CacheMisses++
				if sp != nil {
					sp.Event("cache-miss", string(to.st.Comp.Path), 0)
				}
			}
			return n.resolveCold(t, lc, o, tr, sp)
		}
	}
	lc.nbrsMu.Unlock()
	return n.resolveCold(t, lc, o, tr, sp)
}

// resolveCold resolves output wire o of lc by wire algebra and the
// neighbor cache or DHT, and memoizes the result.
func (n *Network) resolveCold(t *topology, lc *liveComp, o int, tr *TokenTrace, sp *obs.Span) (*liveComp, bool, int, error) {
	target, wire, exit, err := tree.AHS94.Leave(n.cfg.Width, lc.st.Comp, o)
	if err != nil {
		return nil, false, 0, err
	}
	if exit {
		if !n.cfg.DisableCache {
			lc.nbrsMu.Lock()
			lc.memoLocked(o, wireDst{exit: true, netOut: wire})
			lc.nbrsMu.Unlock()
		}
		return nil, true, wire, nil
	}
	next, err := n.descendToLive(t, lc, o, target, wire, tr, sp)
	return next, false, 0, err
}

// descendToLive finds the live component covering (target, wire),
// consulting the sender's neighbor cache before issuing DHT lookups, and
// memoizes it as the destination of the sender's output wire o. The
// neighbor cache is guarded by the sending component's own mutex (lock
// striping): tokens leaving different components never contend.
func (n *Network) descendToLive(t *topology, lc *liveComp, o int, target tree.Component, wire int, tr *TokenTrace, sp *obs.Span) (*liveComp, error) {
	// Compute the candidate chain locally (free): every component on the
	// input descent from target down to the leaf.
	chainp := chainPool.Get().(*[]tree.Component)
	chain := (*chainp)[:0]
	defer func() {
		*chainp = chain[:0]
		chainPool.Put(chainp)
	}()
	if _, _, err := tree.AHS94.Enter(target, wire, func(c tree.Component) bool {
		chain = append(chain, c)
		return c.IsLeaf()
	}); err != nil {
		return nil, err
	}

	// The neighbor cache is empty under DisableCache (the insert below is
	// the only writer), so this probe then finds nothing.
	lc.nbrsMu.Lock()
	for _, cand := range chain {
		host, cached := lc.nbrs[cand.Path]
		if !cached {
			continue
		}
		if got := t.comps[cand.Path]; got != nil && got.host == host {
			lc.memoLocked(o, wireDst{to: got, epoch: t.epoch, ver: lc.nbrsVer})
			lc.nbrsMu.Unlock()
			tr.CacheHits++
			if sp != nil {
				sp.Event("cache-hit", string(cand.Path), 0)
			}
			return got, nil
		}
		// Stale: the direct send bounces; re-resolve below.
		tr.CacheMisses++
		if sp != nil {
			sp.Event("cache-miss", string(cand.Path), 0)
		}
		lc.dropNbrLocked(cand.Path)
	}
	lc.nbrsMu.Unlock()

	// Cold or stale: walk the chain with metered DHT lookups.
	for _, cand := range chain {
		got, err := n.lookup(t, lc.host, cand.Path, tr, sp)
		if err != nil {
			return nil, err
		}
		if got != nil {
			if !n.cfg.DisableCache {
				lc.nbrsMu.Lock()
				lc.nbrs[cand.Path] = got.host
				lc.memoLocked(o, wireDst{to: got, epoch: t.epoch, ver: lc.nbrsVer})
				lc.nbrsMu.Unlock()
			}
			return got, nil
		}
	}
	return nil, fmt.Errorf("core: no live component covers %v", target)
}
