// The frame codec. Every integer is big-endian:
//
//	stream      magic, then frames
//	frame       u32 body length (at most MaxFrame), u8 kind, body
//	Heartbeat   empty
//	Assign      u32 cell, once per cell
//	Result      u32 index, then the payload's AppendWire bytes; or, for a
//	            payload without a codec, one gob message of the Result
//	StoreGet    u64 ID, 32-byte key
//	StorePut    u64 ID, 32-byte key, payload
//	StoreReply  u64 ID, u8 found (0 or 1), u32 error length, error, payload
//	Hello, Job, CellError, Fail
//	            one gob message each, on the connection's gob stream
//
// A gob body holds its message whole, type definitions included, so the
// gob stream of a connection is the concatenation of its gob bodies.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"portcc/internal/pcerr"
)

// MaxFrame caps one frame's body, in bytes. The largest legitimate frame
// is the Job of a paper-scale grid (35 programs, 1 001 settings, 200
// architectures): 51 KB, as dataset's TestPaperJobFitsFrameCap
// measures. The cap leaves room for grids far past the paper's and
// still refuses a peer claiming a gigabyte before a byte of it is
// allocated.
const MaxFrame = 64 << 20

// magic opens every stream, ahead of its first frame (the Hello, on any
// real connection). Its first byte can begin neither a gob stream, whose
// first byte is a message length (0x00-0x7F) or a length's byte count
// (0xF8-0xFF), nor a frame header under MaxFrame (0x00-0x04): a v2
// peer's raw gob fails on its first byte.
var magic = [4]byte{0xC7, 'p', 'c', 'w'}

// Frame kinds, the byte after the length.
const (
	kindHeartbeat byte = 1 + iota
	kindHello
	kindJob
	kindAssign
	kindResult
	kindResultGob
	kindCellError
	kindFail
	kindStoreGet
	kindStorePut
	kindStoreReply
	kindEnd // one past the last kind
)

var kindNames = [kindEnd]string{"invalid", "heartbeat", "hello", "job", "assign", "result", "result",
	"cell-error", "fail", "store-get", "store-put", "store-reply"}

func kindName(k byte) string {
	if k >= kindEnd {
		return fmt.Sprintf("kind-%d", k)
	}
	return kindNames[k]
}

const (
	headerLen = 5
	// keyLen is the store key width of StoreGet and StorePut.
	keyLen = 32
	// replyHead is StoreReply's fixed part: ID, found flag, error length.
	replyHead = 8 + 1 + 4
	// readBufSize sizes the buffered reader on the stream.
	readBufSize = 32 << 10
	// bodyStep is the first allocation for a frame body: a larger body
	// grows by at most what has already arrived, so its buffer stays
	// within twice the bytes received plus bodyStep, whatever the
	// length claims.
	bodyStep = 64 << 10
	// keepWriteBuf is the largest frame buffer a Conn keeps for reuse.
	keepWriteBuf = 1 << 20
)

// Conn reads and writes frames on one byte stream. Sends are serialised
// by an internal lock, so result-streaming workers and their heartbeat
// tickers share a connection safely; Recv must stay single-reader. Both
// directions fail sticky: after a failed Send every later Send returns
// the same error, and likewise for Recv, because a stream cut or
// desynchronised mid-frame cannot be resumed.
type Conn struct {
	wmu    sync.Mutex
	w      io.Writer
	wbuf   []byte
	opened bool // the magic has been written
	gobOut bytes.Buffer
	enc    *gob.Encoder
	werr   error

	r     *bufio.Reader
	began bool // the magic has been read
	gobIn feed
	dec   *gob.Decoder
	rerr  error
}

// NewConn wraps a byte stream. Deadlines stay the caller's business: the
// wrapper never touches the underlying net.Conn interface.
func NewConn(rw io.ReadWriter) *Conn {
	c := &Conn{w: rw, r: bufio.NewReaderSize(rw, readBufSize)}
	c.enc = gob.NewEncoder(&c.gobOut)
	c.dec = gob.NewDecoder(&c.gobIn)
	return c
}

// Send writes one frame, whole, with one Write under the write lock.
func (c *Conn) Send(f *Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	b := c.wbuf[:0]
	if !c.opened {
		b = append(b, magic[:]...)
	}
	b, err := c.appendFrame(b, f)
	if err == nil {
		_, err = c.w.Write(b)
	}
	if cap(b) <= keepWriteBuf {
		c.wbuf = b[:0]
	}
	if err != nil {
		c.werr = err
		return err
	}
	c.opened = true
	return nil
}

// appendFrame appends f's header and body to b.
func (c *Conn) appendFrame(b []byte, f *Frame) ([]byte, error) {
	be := binary.BigEndian
	at := len(b)
	b = append(b, make([]byte, headerLen)...)
	var kind byte
	var err error
	switch {
	case f.Hello != nil:
		kind = kindHello
		b, err = c.appendGob(b, f.Hello)
	case f.Job != nil:
		kind = kindJob
		b, err = c.appendGob(b, f.Job)
	case f.Assign != nil:
		kind = kindAssign
		for _, cell := range f.Assign.Cells {
			if cell < 0 || uint64(cell) > math.MaxUint32 {
				return b, fmt.Errorf("wire: assigned cell %d outside the u32 layout", cell)
			}
			b = be.AppendUint32(b, uint32(cell))
		}
	case f.Result != nil:
		a, ok := f.Result.Payload.(Appender)
		if !ok {
			kind = kindResultGob
			b, err = c.appendGob(b, f.Result)
			break
		}
		if i := f.Result.Index; i < 0 || uint64(i) > math.MaxUint32 {
			return b, fmt.Errorf("wire: result index %d outside the u32 layout", i)
		}
		kind = kindResult
		b = be.AppendUint32(b, uint32(f.Result.Index))
		b = a.AppendWire(b)
	case f.CellError != nil:
		kind = kindCellError
		b, err = c.appendGob(b, f.CellError)
	case f.Fail != nil:
		kind = kindFail
		b, err = c.appendGob(b, f.Fail)
	case f.StoreGet != nil:
		kind = kindStoreGet
		b = be.AppendUint64(b, f.StoreGet.ID)
		b = append(b, f.StoreGet.Key[:]...)
	case f.StorePut != nil:
		kind = kindStorePut
		b = be.AppendUint64(b, f.StorePut.ID)
		b = append(b, f.StorePut.Key[:]...)
		b = append(b, f.StorePut.Payload...)
	case f.StoreReply != nil:
		r := f.StoreReply
		kind = kindStoreReply
		b = be.AppendUint64(b, r.ID)
		found := byte(0)
		if r.Found {
			found = 1
		}
		b = append(b, found)
		b = be.AppendUint32(b, uint32(len(r.Err)))
		b = append(b, r.Err...)
		b = append(b, r.Payload...)
	case f.Heartbeat:
		kind = kindHeartbeat
	default:
		return b, fmt.Errorf("wire: empty frame")
	}
	if err != nil {
		return b, err
	}
	n := len(b) - at - headerLen
	if n > MaxFrame {
		return b, fmt.Errorf("wire: %w: %s frame body of %d bytes over the %d-byte cap",
			pcerr.ErrWireFrame, kindName(kind), n, MaxFrame)
	}
	be.PutUint32(b[at:], uint32(n))
	b[at+4] = kind
	return b, nil
}

// appendGob appends v's gob message, on the connection's gob stream.
func (c *Conn) appendGob(b []byte, v any) ([]byte, error) {
	c.gobOut.Reset()
	if err := c.enc.Encode(v); err != nil {
		return b, fmt.Errorf("wire: %w", err)
	}
	return append(b, c.gobOut.Bytes()...), nil
}

// Recv reads the next frame. Bytes that are not a legal frame - a length
// over MaxFrame, an unknown kind, a body that does not decode to its
// kind's layout - fail with pcerr.ErrWireFrame; a stream that does not
// open with the magic (a v2 or foreign peer) fails with
// pcerr.ErrWireVersion. A peer closing between frames reads as io.EOF,
// one closing inside a frame as io.ErrUnexpectedEOF. Memory for a frame
// grows with the bytes that actually arrive, never with its claimed
// length. Variable-length fields of a received frame share one buffer,
// owned by the frame.
func (c *Conn) Recv() (*Frame, error) {
	if c.rerr != nil {
		return nil, c.rerr
	}
	f, err := c.recv()
	if err != nil {
		c.rerr = err
		return nil, err
	}
	return f, nil
}

func (c *Conn) recv() (*Frame, error) {
	if !c.began {
		if err := c.readMagic(); err != nil {
			return nil, err
		}
		c.began = true
	}
	var h [headerLen]byte
	if _, err := io.ReadFull(c.r, h[:]); err != nil {
		return nil, err
	}
	n, kind := binary.BigEndian.Uint32(h[:4]), h[4]
	if kind == 0 || kind >= kindEnd {
		return nil, fmt.Errorf("wire: %w: unknown frame kind %d", pcerr.ErrWireFrame, kind)
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: %w: %s frame claims %d bytes, over the %d-byte cap",
			pcerr.ErrWireFrame, kindName(kind), n, MaxFrame)
	}
	body, err := c.readBody(int(n))
	if err != nil {
		return nil, err
	}
	f, err := c.decodeFrame(kind, body)
	if err != nil {
		return nil, fmt.Errorf("wire: %w: %d-byte %s frame: %v", pcerr.ErrWireFrame, n, kindName(kind), err)
	}
	return f, nil
}

// readMagic checks the stream's opening bytes, judging the first one
// before waiting for the rest.
func (c *Conn) readMagic() error {
	var m [len(magic)]byte
	if _, err := io.ReadFull(c.r, m[:1]); err != nil {
		return err
	}
	if m[0] == magic[0] {
		if _, err := io.ReadFull(c.r, m[1:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if m == magic {
			return nil
		}
	}
	return fmt.Errorf("wire: %w: stream opens with %#x, not the v%d frame magic (a pre-v3 or foreign peer)",
		pcerr.ErrWireVersion, m[0], ProtoVersion)
}

// readBody reads an n-byte body, allocating in steps bounded by what has
// already arrived.
func (c *Conn) readBody(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	b := make([]byte, 0, min(n, bodyStep))
	for {
		k, err := io.ReadFull(c.r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+k]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(b) == n {
			return b, nil
		}
		b = slices.Grow(b, min(n-len(b), len(b)))
	}
}

// decodeFrame decodes one body by its kind's layout.
func (c *Conn) decodeFrame(kind byte, b []byte) (*Frame, error) {
	be := binary.BigEndian
	switch kind {
	case kindHeartbeat:
		if len(b) != 0 {
			return nil, fmt.Errorf("%d-byte body, want none", len(b))
		}
		return &Frame{Heartbeat: true}, nil
	case kindAssign:
		if len(b)%4 != 0 {
			return nil, fmt.Errorf("body not a whole number of u32 cells")
		}
		a := &Assign{}
		if len(b) > 0 {
			a.Cells = make([]int, len(b)/4)
			for i := range a.Cells {
				a.Cells[i] = int(be.Uint32(b[4*i:]))
			}
		}
		return &Frame{Assign: a}, nil
	case kindResult:
		if len(b) < 4 {
			return nil, fmt.Errorf("body shorter than its index")
		}
		return &Frame{Result: &Result{Index: int(be.Uint32(b)), Payload: Raw(tail(b[4:]))}}, nil
	case kindStoreGet:
		if len(b) != 8+keyLen {
			return nil, fmt.Errorf("body %d bytes, want %d", len(b), 8+keyLen)
		}
		g := &StoreGet{ID: be.Uint64(b)}
		copy(g.Key[:], b[8:])
		return &Frame{StoreGet: g}, nil
	case kindStorePut:
		if len(b) < 8+keyLen {
			return nil, fmt.Errorf("body shorter than its ID and key")
		}
		p := &StorePut{ID: be.Uint64(b), Payload: tail(b[8+keyLen:])}
		copy(p.Key[:], b[8:])
		return &Frame{StorePut: p}, nil
	case kindStoreReply:
		if len(b) < replyHead || b[8] > 1 {
			return nil, fmt.Errorf("malformed reply head")
		}
		m := be.Uint32(b[9:])
		if uint64(m) > uint64(len(b)-replyHead) {
			return nil, fmt.Errorf("error of %d bytes overruns the body", m)
		}
		end := replyHead + int(m)
		return &Frame{StoreReply: &StoreReply{
			ID:      be.Uint64(b),
			Found:   b[8] == 1,
			Err:     string(b[replyHead:end]),
			Payload: tail(b[end:]),
		}}, nil
	case kindHello:
		v := &Hello{}
		return &Frame{Hello: v}, c.decodeGob(b, v)
	case kindJob:
		v := &Job{}
		return &Frame{Job: v}, c.decodeGob(b, v)
	case kindResultGob:
		v := &Result{}
		return &Frame{Result: v}, c.decodeGob(b, v)
	case kindCellError:
		v := &CellError{}
		return &Frame{CellError: v}, c.decodeGob(b, v)
	case kindFail:
		v := &Fail{}
		return &Frame{Fail: v}, c.decodeGob(b, v)
	}
	return nil, fmt.Errorf("unknown kind")
}

// tail is a trailing variable-length field: empty decodes as nil, the
// way a nil field encodes.
func tail(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

// decodeGob decodes one gob body, which must hold exactly one message.
// gob is not hardened against hostile input, so a panic inside it is
// caught and reported like any other malformed body.
func (c *Conn) decodeGob(b []byte, v any) (err error) {
	c.gobIn.b = b
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gob: %v", r)
		}
	}()
	if err := c.dec.Decode(v); err != nil {
		return err
	}
	if len(c.gobIn.b) != 0 {
		return fmt.Errorf("%d bytes trailing the gob message", len(c.gobIn.b))
	}
	return nil
}

// feed hands the gob decoder one frame body at a time. It is an
// io.ByteReader, so the decoder reads it directly, without a buffer of
// its own that could run past the body.
type feed struct{ b []byte }

func (f *feed) Read(p []byte) (int, error) {
	if len(f.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.b)
	f.b = f.b[n:]
	return n, nil
}

func (f *feed) ReadByte() (byte, error) {
	if len(f.b) == 0 {
		return 0, io.EOF
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c, nil
}
