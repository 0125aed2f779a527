package experiments

import (
	"fmt"
	"time"

	"repro/internal/estimate"
	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/workload"
)

// E28WireTransport prices the serialization boundary: the same token
// stream is driven through the dist engine over the in-process fabric
// (transport.NewMem, bodies passed as Go values) and over a real TCP
// loopback socket (transport/tcpnet, every body through the internal/wire
// codec), each both sequentially (one arrive RPC per component visit per
// token) and group-batched (one group-arrive RPC per component visit per
// batch). The counting output is byte-identical in all four cells — the
// wire subsystem changes what a message costs, never what it counts — so
// the table isolates two prices: the per-RPC cost of a socket versus a
// channel, and how far group batching dilutes it.
func E28WireTransport(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E28",
		Title: "Wire codec + TCP transport vs in-process fabric (sequential vs group-batched)",
		Claim: "binary framing and a pooled TCP loopback keep exact counting; group messages amortize the per-RPC socket cost by a batch factor",
		Headers: []string{"fabric", "mode", "tokens", "ms", "us/tok", "rpcs",
			"rpc/tok", "wire KB", "conserved", "step"},
	}
	const (
		w     = 1 << 10
		nodes = 64
		batch = 128
	)
	tokens := 4096
	if opts.Quick {
		tokens = 1024
	}
	level := estimate.IdealLevel(nodes, w)
	cut, err := tree.UniformCut(w, level)
	if err != nil {
		return nil, err
	}
	retry := transport.RetryConfig{
		Timeout:    25 * time.Millisecond,
		MaxRetries: 8,
		Backoff:    100 * time.Microsecond,
		BackoffCap: 2 * time.Millisecond,
	}

	for _, fabric := range []string{"mem", "tcp"} {
		for _, batched := range []bool{false, true} {
			env, err := buildCluster(clusterCell{
				Fabric: fabric, Width: w, Cut: cut, Retry: retry, Obs: opts.Obs,
			})
			if err != nil {
				return nil, err
			}
			cl, tn := env.Cluster, env.TCP
			ins := make([]int, tokens)
			for i := range ins {
				ins[i] = (i * 2654435761) % w
			}
			_, preCs := cl.NetStats()
			start := time.Now()
			for lo := 0; lo < tokens; lo += batch {
				hi := lo + batch
				if hi > tokens {
					hi = tokens
				}
				if batched {
					_, err = cl.InjectBatch(ins[lo:hi])
				} else {
					err = workload.OneAtATime(cl.Inject)(ins[lo:hi])
				}
				if err != nil {
					return nil, err
				}
			}
			ms := float64(time.Since(start).Nanoseconds()) / 1e6
			_, postCs := cl.NetStats()
			cs := postCs.Sub(preCs)

			wireKB := "-"
			if tn != nil {
				ws := tn.WireStats()
				wireKB = fmt.Sprintf("%.1f", float64(ws.BytesIn+ws.BytesOut)/1024)
			}
			mode := "sequential"
			if batched {
				mode = fmt.Sprintf("batch=%d", batch)
			}
			conserved := cl.OutCounts().Total() == cl.InCounts().Total()
			stepErr := cl.CheckStep()
			t.AddRow(fabric, mode, tokens, ms, ms*1000/float64(tokens),
				cs.Calls, float64(cs.Calls)/float64(tokens), wireKB,
				conserved, stepErr == nil)
			if err := env.Close(); err != nil {
				return nil, err
			}
		}
	}
	t.Note("every cell runs the identical cut (%d components at level %d) and arrival sequence, so the four counting outcomes are byte-identical; the tcp rows pay the codec and a loopback syscall per RPC, and the batch rows divide that price by the tokens sharing each component visit — the rpc/tok column is the amortization the group message buys", len(cut), level)
	return t, nil
}
