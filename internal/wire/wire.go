// Package wire is the frame protocol of the fleet: coordinator/worker
// exploration and the shared result store, over one byte stream each
// (TCP in production, net.Pipe in tests). The protocol is deliberately
// small - a version handshake, one job description, cell assignments
// downstream, results and heartbeats upstream, and the store's
// get/put/reply triple - and deliberately typed: version mismatches
// between builds fail the handshake with the pcerr sentinels, and bytes
// that are not a legal frame fail with pcerr.ErrWireFrame, never as
// decode noise or as an allocation the peer chose the size of.
//
// Frames are bounded and typed. A stream opens with a 4-byte magic that
// ends in the protocol version, then carries frames laid out as
// [u32 body length][u8 kind][body], big-endian, each body at most
// MaxFrame bytes and each frame written with one Write. Every frame has
// a fixed layout (frame.go) or carries application bytes: a Job spec
// and a Result payload are Appenders that cross as the bytes they
// append and arrive as Raw, for the application to decode (the dataset
// package's ExploreRequest and ExploreResult, through sched.Job.Decode
// and sched.ServeConfig.NewRun).
package wire

import (
	"fmt"
	"time"

	"portcc/internal/pcerr"
)

// ProtoVersion is the wire protocol version. Bump it whenever the frame
// layout, the exchange sequence or the meaning of what a frame carries
// changes incompatibly; the handshake refuses mismatched peers with
// pcerr.ErrWireVersion. v2: a job's cell index is one (program, setting)
// over the whole architecture sample - a v1 peer could be told to split
// the sample into ranges and would number its cells differently. v3: a
// stream opens with a magic and carries length-prefixed frames under
// MaxFrame instead of a raw gob stream; Assign, Result, the store frames
// and Heartbeat have fixed layouts, and a Result payload with a codec
// crosses as its own bytes. A v2 peer's first bytes fail the v3 magic
// check typed. v4: Hello, CellError and Fail have fixed layouts too, a
// Job spec crosses as its own bytes like a Result payload, and no frame
// carries gob; the version moved from Hello into the magic's last byte,
// so a v3 peer fails the magic check typed.
const ProtoVersion = 4

// Hello opens every connection, in both directions: the client sends its
// schema version first, the server always replies with its own before
// judging, so a mismatched peer learns both sides' versions. (The
// protocol version is settled earlier, by the stream magic.) Heartbeat
// is only meaningful server-to-client: the period at which the server
// promises to emit Heartbeat frames while a connection is otherwise
// quiet.
type Hello struct {
	Format    int
	Heartbeat time.Duration
}

// Job describes the whole work grid once per connection. Spec is the
// application's description of the grid in its own encoding; the worker
// receives it as Raw and turns it into an executable cell runner.
type Job struct {
	Spec Appender
}

// Assign hands the worker a batch of cell indices into the job's grid.
// The worker must resolve every assigned cell with exactly one Result or
// CellError frame; the coordinator treats a connection that dies with
// cells unresolved as a dead shard and requeues them elsewhere.
type Assign struct {
	Cells []int
}

// Result is one completed cell, identified by its grid index. Payload is
// sent as the bytes it appends and received as Raw.
type Result struct {
	Index   int
	Payload Appender
}

// Appender is an application value with its own wire codec - a Job spec
// or a Result payload: AppendWire appends the value's encoding to b and
// returns the extended slice. The receiver gets the bytes back as Raw
// and decodes them itself, against what it already knows.
type Appender interface {
	AppendWire(b []byte) []byte
}

// Raw is an application value as received, undecoded. It implements
// Appender, so a received Raw sent on goes out verbatim.
type Raw []byte

// AppendWire implements Appender.
func (r Raw) AppendWire(b []byte) []byte { return append(b, r...) }

// Sentinel codes carried by CellError, so the coordinator can
// reconstruct errors.Is-compatible failures across the wire.
const (
	CodeNone = iota
	CodeUnknownProgram
	CodeInvalidConfig
	// CodePanic marks a cell whose runner panicked on the worker; the
	// daemon recovered and kept serving, degrading the panic to a cell
	// failure instead of a dead shard.
	CodePanic
)

// CellError is one failed cell. Msg is the far side's rendering of the
// underlying error (the original chain cannot cross the wire); the Sim
// fields preserve pcerr.SimError's grid location when the failure had
// one, and Code preserves the pcerr sentinel it matched.
type CellError struct {
	Index   int
	Msg     string
	Code    int
	Sim     bool
	Program string
	Setting int
	Arch    int
}

// Fail refuses a whole job (for example, a spec the worker's build
// cannot execute). The connection closes after it.
type Fail struct {
	Msg string
}

// StoreGet asks the store service for the entry under Key. ID correlates
// the eventual StoreReply: the connection is pipelined, so replies may
// arrive out of order relative to requests.
type StoreGet struct {
	ID  uint64
	Key [32]byte
}

// StorePut offers the store service an entry to commit. The service
// acknowledges with a StoreReply carrying the same ID (Err set when the
// commit failed - degraded, not fatal).
type StorePut struct {
	ID      uint64
	Key     [32]byte
	Payload []byte
}

// StoreReply answers exactly one StoreGet or StorePut. For a Get, Found
// reports presence and Payload carries the bytes; for a Put, Found is
// true on commit. Err is the service-side rendering of a degraded
// request (corrupt entry quarantined, full disk) - the client absorbs
// it as a miss or a lost commit, never as wrong data.
type StoreReply struct {
	ID      uint64
	Found   bool
	Payload []byte
	Err     string
}

// Frame is the single on-stream message type: exactly one field is
// populated per frame (Heartbeat frames set only the flag).
type Frame struct {
	Hello      *Hello
	Job        *Job
	Assign     *Assign
	Result     *Result
	CellError  *CellError
	Fail       *Fail
	StoreGet   *StoreGet
	StorePut   *StorePut
	StoreReply *StoreReply
	Heartbeat  bool
}

// kind is the frame kind of the populated field, 0 for an empty frame:
// the one place a Frame maps to its kind, for the codec and Kind alike.
func (f *Frame) kind() byte {
	for k, set := range [kindEnd]bool{
		kindHeartbeat: f.Heartbeat, kindHello: f.Hello != nil, kindJob: f.Job != nil,
		kindAssign: f.Assign != nil, kindResult: f.Result != nil, kindCellError: f.CellError != nil,
		kindFail: f.Fail != nil, kindStoreGet: f.StoreGet != nil, kindStorePut: f.StorePut != nil,
		kindStoreReply: f.StoreReply != nil,
	} {
		if set {
			return byte(k)
		}
	}
	return 0
}

// Kind names the populated field, for protocol-error messages.
func (f *Frame) Kind() string { return kindName(f.kind()) }

// checkFormat compares a peer's application schema version against this
// build's, wrapping pcerr.ErrDatasetVersion: schema drift has another
// fix than protocol drift, which the stream magic already refused as
// pcerr.ErrWireVersion.
func checkFormat(peer *Hello, format int) error {
	if peer.Format != format {
		return fmt.Errorf("wire: %w: peer carries format v%d, this build v%d",
			pcerr.ErrDatasetVersion, peer.Format, format)
	}
	return nil
}

// ClientHello performs the coordinator side of the handshake: send our
// schema version, read the worker's, and verify it. It returns the worker's
// announced heartbeat period (defaulted when unset) so the caller can
// derive a read deadline.
func (c *Conn) ClientHello(format int) (heartbeat time.Duration, err error) {
	if err := c.Send(&Frame{Hello: &Hello{Format: format}}); err != nil {
		return 0, err
	}
	f, err := c.Recv()
	if err != nil {
		return 0, err
	}
	if f.Hello == nil {
		return 0, fmt.Errorf("wire: expected hello, got %s frame", f.Kind())
	}
	if err := checkFormat(f.Hello, format); err != nil {
		return 0, err
	}
	hb := f.Hello.Heartbeat
	if hb <= 0 {
		hb = time.Second
	}
	return hb, nil
}

// ServerHello performs the worker side: read the coordinator's schema
// version, always reply with our own (a mismatched coordinator needs them to
// report a useful error), then verify. A non-nil error means the
// connection must be dropped without serving.
func (c *Conn) ServerHello(format int, heartbeat time.Duration) error {
	f, err := c.Recv()
	if err != nil {
		return err
	}
	if f.Hello == nil {
		return fmt.Errorf("wire: expected hello, got %s frame", f.Kind())
	}
	if err := c.Send(&Frame{Hello: &Hello{Format: format, Heartbeat: heartbeat}}); err != nil {
		return err
	}
	return checkFormat(f.Hello, format)
}
