package wire

import "fmt"

// Message kind strings. These are the transport.Request.Kind values the
// protocol layers use; the registry maps each to a one-byte code and its
// typed body/reply codecs. dist and chord reference these constants so the
// string and the codec can never drift apart.
const (
	// KindArrive delivers one token to a component input wire.
	// Body: Arrive. Reply: ArriveRes.
	KindArrive = "arrive"
	// KindGroupArrive delivers a whole token group to a component in one
	// message: k tokens, each with its own input wire. This is the batched
	// dist wire format: one RPC per component visit instead of one per
	// token.
	// Body: GroupArrive. Reply: ArriveRes (Out is the first token's wire).
	KindGroupArrive = "agroup"
	// KindFreeze tells a component to stop routing and snapshot state.
	// Body: none. Reply: FreezeRes.
	KindFreeze = "freeze"
	// KindTotal polls a component's processed-token total.
	// Body: none. Reply: uint64.
	KindTotal = "total"
	// KindKill is retired. It named the message that marked a replaced
	// component incarnation dead; components are now addressed by path, so
	// an incarnation that leaves the topology needs no message. No codec
	// serves it, and its wire code 5 stays unassigned.
	KindKill = "kill"
	// KindResume is retired. It named the message that released a token
	// stored at a frozen component; frozen components now refuse tokens
	// instead. No codec serves it, and its wire code 6 stays unassigned so
	// an old frame cannot be read as a new kind.
	KindResume = "resume"
	// KindThaw reactivates a frozen component whose split or merge was
	// abandoned, so it routes tokens again.
	// Body: none. Reply: none.
	KindThaw = "thaw"
	// KindCPF is Chord's closest-preceding-finger query.
	// Body: uint64 (key). Reply: uint64 (node ID).
	KindCPF = "cpf"
	// KindProbe is Chord's successor liveness probe.
	// Body: uint64 (probed ID). Reply: uint64 (responder ID).
	KindProbe = "probe"
	// KindCtl is the launch control plane: coordinator→worker commands
	// (wire routes, run workload, report, shutdown) carried as opaque
	// JSON. The payload is a Blob both ways so the control protocol can
	// evolve without new wire codes; it is never on the token hot path.
	// Body: Blob. Reply: Blob.
	KindCtl = "ctl"
)

// Status is the outcome of an arrive (or group arrive) RPC.
type Status uint8

const (
	// StatusProcessed: the token(s) were routed; the reply carries output
	// wires.
	StatusProcessed Status = 1
	// StatusFrozen: the component is frozen for a split or merge; it
	// refused the token(s) and recorded nothing. Re-resolve once the
	// topology the sender resolved against has been replaced.
	StatusFrozen Status = 2
	// StatusDead: no live component incarnation holds the addressed path
	// (it was split or merged away); re-resolve against the current cut and
	// retry.
	StatusDead Status = 3
)

func decodeStatus(d *Decoder) (Status, error) {
	b, err := d.Byte()
	if err != nil {
		return 0, err
	}
	s := Status(b)
	if s < StatusProcessed || s > StatusDead {
		return 0, fmt.Errorf("%w: arrive status %d", ErrCorrupt, b)
	}
	return s, nil
}

// Arrive asks a component to accept one token on an input wire.
type Arrive struct {
	Wire int
}

// ArriveRes is the reply to an Arrive or a GroupArrive. A component serves
// a whole group under one state lock, so the outcome is uniform. When the
// tokens were processed, Out is the first token's output wire and token i
// of a group left on (Out+i) mod the component's width.
type ArriveRes struct {
	Status Status
	Out    int
}

// GroupArrive asks a component to accept a whole token group: token i of
// the group arrives on Wires[i].
type GroupArrive struct {
	Wires []int
}

// FreezeRes snapshots a component's state at freeze time.
type FreezeRes struct {
	Total     uint64
	Processed []uint64
}

// Blob is an opaque byte payload for control-plane kinds. The bytes are
// whatever the application layer agreed on (launch uses JSON); the codec
// only length-prefixes them.
type Blob []byte

// Codec is one registered message kind: its wire code, its kind string,
// and typed encode/decode for the request body and the reply body. Encode
// functions reject bodies of the wrong dynamic type with an error rather
// than panicking, so a mis-wired caller fails loudly at the boundary.
type Codec struct {
	Code byte
	Kind string

	EncodeReq func(e *Encoder, body any) error
	DecodeReq func(d *Decoder) (any, error)
	EncodeRes func(e *Encoder, body any) error
	DecodeRes func(d *Decoder) (any, error)
}

func badBody(kind string, body any) error {
	return fmt.Errorf("wire: %s: body %T not encodable", kind, body)
}

// encNone / decNone serve the control kinds whose request carries no body.
func encNone(kind string) func(*Encoder, any) error {
	return func(_ *Encoder, body any) error {
		if body != nil {
			return badBody(kind, body)
		}
		return nil
	}
}

func decNone(_ *Decoder) (any, error) { return nil, nil }

// encUint64 / decUint64 serve kinds whose payload is a bare uint64
// (chord's node IDs, the total poll reply).
func encUint64(kind string) func(*Encoder, any) error {
	return func(e *Encoder, body any) error {
		v, ok := body.(uint64)
		if !ok {
			return badBody(kind, body)
		}
		e.Uvarint(v)
		return nil
	}
}

func decUint64(d *Decoder) (any, error) { return d.Uvarint() }

// registry holds every message kind, indexed by code and by kind string.
// Codes are wire format: they never change meaning, only grow.
var (
	byCode [256]*Codec
	byKind = map[string]*Codec{}
)

func register(c *Codec) *Codec {
	if byCode[c.Code] != nil || byKind[c.Kind] != nil {
		panic(fmt.Sprintf("wire: duplicate registration for code %d kind %q", c.Code, c.Kind))
	}
	byCode[c.Code] = c
	byKind[c.Kind] = c
	return c
}

// ByKind returns the codec for a kind string.
func ByKind(kind string) (*Codec, bool) {
	c, ok := byKind[kind]
	return c, ok
}

// ByCode returns the codec for a wire code.
func ByCode(code byte) (*Codec, bool) {
	c := byCode[code]
	return c, c != nil
}

// Kinds returns every registered kind string, in wire-code order.
func Kinds() []string {
	var ks []string
	for _, c := range byCode {
		if c != nil {
			ks = append(ks, c.Kind)
		}
	}
	return ks
}

// encArriveRes / decArriveRes serve the reply of both arrive kinds.
func encArriveRes(kind string) func(*Encoder, any) error {
	return func(e *Encoder, body any) error {
		r, ok := body.(ArriveRes)
		if !ok {
			return badBody(kind, body)
		}
		e.Byte(byte(r.Status))
		e.Int(r.Out)
		return nil
	}
}

func decArriveRes(d *Decoder) (any, error) {
	var r ArriveRes
	var err error
	if r.Status, err = decodeStatus(d); err != nil {
		return nil, err
	}
	if r.Out, err = d.Int(); err != nil {
		return nil, err
	}
	return r, nil
}

var _ = register(&Codec{
	Code: 1, Kind: KindArrive,
	EncodeReq: func(e *Encoder, body any) error {
		a, ok := body.(Arrive)
		if !ok {
			return badBody(KindArrive, body)
		}
		e.Int(a.Wire)
		return nil
	},
	DecodeReq: func(d *Decoder) (any, error) {
		w, err := d.Int()
		if err != nil {
			return nil, err
		}
		return Arrive{Wire: w}, nil
	},
	EncodeRes: encArriveRes(KindArrive),
	DecodeRes: decArriveRes,
})

var _ = register(&Codec{
	Code: 2, Kind: KindGroupArrive,
	EncodeReq: func(e *Encoder, body any) error {
		g, ok := body.(GroupArrive)
		if !ok {
			return badBody(KindGroupArrive, body)
		}
		e.Ints(g.Wires)
		return nil
	},
	DecodeReq: func(d *Decoder) (any, error) {
		ws, err := d.Ints()
		if err != nil {
			return nil, err
		}
		return GroupArrive{Wires: ws}, nil
	},
	EncodeRes: encArriveRes(KindGroupArrive),
	DecodeRes: decArriveRes,
})

var _ = register(&Codec{
	Code: 3, Kind: KindFreeze,
	EncodeReq: encNone(KindFreeze),
	DecodeReq: decNone,
	EncodeRes: func(e *Encoder, body any) error {
		f, ok := body.(FreezeRes)
		if !ok {
			return badBody(KindFreeze, body)
		}
		e.Uvarint(f.Total)
		e.Uint64s(f.Processed)
		return nil
	},
	DecodeRes: func(d *Decoder) (any, error) {
		var f FreezeRes
		var err error
		if f.Total, err = d.Uvarint(); err != nil {
			return nil, err
		}
		if f.Processed, err = d.Uint64s(); err != nil {
			return nil, err
		}
		return f, nil
	},
})

var _ = register(&Codec{
	Code: 4, Kind: KindTotal,
	EncodeReq: encNone(KindTotal),
	DecodeReq: decNone,
	EncodeRes: encUint64(KindTotal),
	DecodeRes: decUint64,
})

// Codes 5 and 6 belonged to the retired KindKill and KindResume and are
// never reassigned.

var _ = register(&Codec{
	Code: 7, Kind: KindCPF,
	EncodeReq: encUint64(KindCPF),
	DecodeReq: decUint64,
	EncodeRes: encUint64(KindCPF),
	DecodeRes: decUint64,
})

var _ = register(&Codec{
	Code: 8, Kind: KindProbe,
	EncodeReq: encUint64(KindProbe),
	DecodeReq: decUint64,
	EncodeRes: encUint64(KindProbe),
	DecodeRes: decUint64,
})

// encBlob / decBlob serve KindCtl both ways.
func encBlob(kind string) func(*Encoder, any) error {
	return func(e *Encoder, body any) error {
		b, ok := body.(Blob)
		if !ok {
			return badBody(kind, body)
		}
		return e.BlobBytes(b)
	}
}

func decBlob(d *Decoder) (any, error) {
	b, err := d.BlobBytes()
	if err != nil {
		return nil, err
	}
	return Blob(b), nil
}

var _ = register(&Codec{
	Code: 9, Kind: KindCtl,
	EncodeReq: encBlob(KindCtl),
	DecodeReq: decBlob,
	EncodeRes: encBlob(KindCtl),
	DecodeRes: decBlob,
})

var _ = register(&Codec{
	Code: 10, Kind: KindThaw,
	EncodeReq: encNone(KindThaw),
	DecodeReq: decNone,
	EncodeRes: encNone(KindThaw),
	DecodeRes: decNone,
})
