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
// Frames are bounded and typed. A stream opens with a 4-byte magic no gob
// stream can begin with, then carries frames laid out as
// [u32 body length][u8 kind][body], big-endian, each body at most
// MaxFrame bytes and each frame written with one Write. The hot frames -
// Assign, Result, StoreGet, StorePut, StoreReply and Heartbeat - have
// fixed layouts (frame.go). Hello, Job, CellError and Fail ride one gob
// stream carried inside the frames.
//
// Job specs cross as interface values, so the application layer
// registers its concrete spec types with encoding/gob (the dataset
// package registers ExploreRequest). A Result payload that implements
// Appender crosses as its own bytes and arrives as Raw, for the
// application to decode (sched.Job.Decode); any other payload crosses as
// a gob-registered interface value.
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
// check typed, with pcerr.ErrWireVersion.
const ProtoVersion = 3

// Hello opens every connection, in both directions: the client sends its
// versions first, the server always replies with its own before judging,
// so a mismatched peer learns both sides' versions. Heartbeat is only
// meaningful server-to-client: the period at which the server promises
// to emit Heartbeat frames while a connection is otherwise quiet.
type Hello struct {
	Proto     int
	Format    int
	Heartbeat time.Duration
}

// Job describes the whole work grid once per connection. Spec is an
// application value (gob-registered by the application layer) that the
// worker turns into an executable cell runner.
type Job struct {
	Spec any
}

// Assign hands the worker a batch of cell indices into the job's grid.
// The worker must resolve every assigned cell with exactly one Result or
// CellError frame; the coordinator treats a connection that dies with
// cells unresolved as a dead shard and requeues them elsewhere.
type Assign struct {
	Cells []int
}

// Result is one completed cell, identified by its grid index. A Payload
// implementing Appender is sent as the bytes it appends and received as
// Raw; any other payload is sent through the connection's gob stream,
// so its concrete type must be gob-registered.
type Result struct {
	Index   int
	Payload any
}

// Appender is a Result payload with its own wire codec: AppendWire
// appends the payload's encoding to b and returns the extended slice.
// The receiver gets the bytes back as Raw and decodes them itself,
// against what it already knows about the cell.
type Appender interface {
	AppendWire(b []byte) []byte
}

// Raw is a codec'd Result payload as received, undecoded. It implements
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

// Kind names the populated field, for protocol-error messages.
func (f *Frame) Kind() string {
	switch {
	case f.Hello != nil:
		return "hello"
	case f.Job != nil:
		return "job"
	case f.Assign != nil:
		return "assign"
	case f.Result != nil:
		return "result"
	case f.CellError != nil:
		return "cell-error"
	case f.Fail != nil:
		return "fail"
	case f.StoreGet != nil:
		return "store-get"
	case f.StorePut != nil:
		return "store-put"
	case f.StoreReply != nil:
		return "store-reply"
	case f.Heartbeat:
		return "heartbeat"
	}
	return "empty"
}

// checkVersions compares a peer's Hello against this build, wrapping the
// typed sentinels: protocol drift and application schema drift are
// different failures with different fixes.
func checkVersions(peer *Hello, format int) error {
	if peer.Proto != ProtoVersion {
		return fmt.Errorf("wire: %w: peer speaks protocol v%d, this build v%d",
			pcerr.ErrWireVersion, peer.Proto, ProtoVersion)
	}
	if peer.Format != format {
		return fmt.Errorf("wire: %w: peer carries format v%d, this build v%d",
			pcerr.ErrDatasetVersion, peer.Format, format)
	}
	return nil
}

// ClientHello performs the coordinator side of the handshake: send our
// versions, read the worker's, and verify both. It returns the worker's
// announced heartbeat period (defaulted when unset) so the caller can
// derive a read deadline.
func (c *Conn) ClientHello(format int) (heartbeat time.Duration, err error) {
	if err := c.Send(&Frame{Hello: &Hello{Proto: ProtoVersion, Format: format}}); err != nil {
		return 0, err
	}
	f, err := c.Recv()
	if err != nil {
		return 0, err
	}
	if f.Hello == nil {
		return 0, fmt.Errorf("wire: expected hello, got %s frame", f.Kind())
	}
	if err := checkVersions(f.Hello, format); err != nil {
		return 0, err
	}
	hb := f.Hello.Heartbeat
	if hb <= 0 {
		hb = time.Second
	}
	return hb, nil
}

// ServerHello performs the worker side: read the coordinator's versions,
// always reply with our own (a mismatched coordinator needs them to
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
	if err := c.Send(&Frame{Hello: &Hello{Proto: ProtoVersion, Format: format, Heartbeat: heartbeat}}); err != nil {
		return err
	}
	return checkVersions(f.Hello, format)
}
