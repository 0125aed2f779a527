package transport

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Net is the deterministic in-memory switch: Send looks up the destination
// endpoint and runs its handler synchronously in the caller's goroutine.
// Delivery is reliable and instantaneous, so the default fabric adds no
// nondeterminism to anything built on it.
//
// When dedup is enabled (it is off on the ideal fabric, where every logical
// call is sent exactly once, and switched on by Faulty), each endpoint
// carries a bounded DedupTable: a retry or a network duplicate of an
// already-executed request returns the cached reply without re-running the
// handler. This is the receiver half of at-most-once delivery; see
// DedupTable for the striping and the retirement bound.
type Net struct {
	Endpoints

	sent atomic.Uint64
}

// NewMem creates an empty in-memory switch.
func NewMem() *Net {
	return &Net{}
}

// Send implements Transport. On the ideal fabric the timeout is never
// exercised: the handler runs inline and its reply returns immediately.
func (n *Net) Send(req Request, timeout time.Duration) (any, error) {
	n.sent.Add(1)
	reply, err, bound := n.Dispatch(req)
	if !bound {
		return nil, fmt.Errorf("%w: %q", ErrUnreachable, req.To)
	}
	return reply, err
}

// Stats implements Transport.
func (n *Net) Stats() Stats {
	s := n.Endpoints.Stats()
	s.Sent = n.sent.Load()
	return s
}
