package rpcmr

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"time"
)

// The wire: what one rpcmr connection carries, the same in both directions
// and on both ends. Every message is three parts,
//
//	header   gob: the rpc.Request or rpc.Response
//	body     gob: the args or reply, its frame payloads detached
//	section  uvarint count, count uvarint lengths, then the payloads'
//	         bytes back to back
//
// so that a frame stream crosses as itself, with gob moving only the small
// struct around it: read straight into the slice that will hold it, and
// written straight from the slice that holds it — or, for a split of a
// job's input, which nothing holds, framed from the input through the
// wire's scratch as it is written (payload.writeTo). The section is always
// there (count 0 for Register, Status, TaskArgs), so a body can be skipped
// without knowing its type, and its slots are a function of the decoded body
// (see payloadSlots), so a count that disagrees with the body is an error
// before anything is sized from it. There is no fallback to stock gob:
// master and workers are one build.
//
// One wire has one reader and one writer at a time — net/rpc reads a
// connection from one goroutine and serialises its writes — which is what
// lets the scratch slices below be plain fields.
type wire struct {
	conn io.ReadWriteCloser
	br   *bufio.Reader // gob reads through it and no further than its message
	bw   *bufio.Writer
	dec  *gob.Decoder
	enc  *gob.Encoder

	// Writer's scratch: a copy of the body's outer payload slice (the
	// body's own may be shared — a reduce task's FrameStreams are the
	// job's), the copy's slots, the detached payloads, the split that is
	// the first of them when the body is a master's reply that carries one,
	// what that split is framed into, and a varint.
	outer   [][]byte
	slots   []*[]byte
	out     [][]byte
	split   payload
	scratch []byte
	varint  [binary.MaxVarintLen64]byte
	// stall, on the master's end, is how long a split's write waits for the
	// peer to take a piece of it before the connection is given up (zero:
	// for ever). Run waits for every split it handed out to be written, so a
	// peer that stopped reading must not hold it for longer than the health
	// sweep takes to declare the peer dead.
	stall time.Duration
	// Reader's scratch: the decoded body's slots and the section's lengths.
	in   []*[]byte
	lens []int

	// gone is closed when the master's end can read no further request: the
	// peer hung up or sent garbage. Requests of this connection parked in
	// RequestTask give up on it rather than take a task to a dead worker.
	gone chan struct{}
}

func newWire(conn io.ReadWriteCloser) *wire {
	w := &wire{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), gone: make(chan struct{})}
	w.dec, w.enc = gob.NewDecoder(w.br), gob.NewEncoder(w.bw)
	return w
}

// dial connects to a master and speaks its wire.
func dial(addr string) (*rpc.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return rpc.NewClientWithCodec(newWire(conn)), nil
}

// payloadStep bounds how far ahead of delivered bytes a payload's
// destination grows (see readPayload).
const payloadStep = 1 << 20

// splitWrite is how much of a split the wire frames before it writes it:
// some ten WalkRows-row frames of 6-dimensional rows, so that a split of
// megabytes is a dozen writes and the scratch stays about this size. A
// whole input's block is one frame, framed whole; a scratch grown past
// twice this for one is let go once it is written.
const splitWrite = 256 << 10

// splitStall is the least time a master's write of a split waits for the
// peer to take a piece of it (see wire.stall): a loopback or LAN peer that
// takes no 256 KiB in that long has stopped reading.
const splitStall = 30 * time.Second

// errSection is what every refusal of a payload section wraps.
var errSection = errors.New("rpcmr: malformed payload section")

// payloadSlots appends the body's payload fields to dst, in wire order.
// Bodies cross as pointers; any other type has no slots.
func payloadSlots(dst []*[]byte, body any) []*[]byte {
	switch b := body.(type) {
	case *TaskReply:
		dst = append(dst, &b.Frames)
		for i := range b.FrameStreams {
			dst = append(dst, &b.FrameStreams[i])
		}
	case *ResultReply:
		return payloadSlots(dst, &b.Next)
	case *ResultArgs:
		for i := range b.Frames {
			dst = append(dst, &b.Frames[i])
		}
	}
	return dst
}

// detach returns the body as gob carries it — a copy whose payload slots
// are empty, an emptied slot still counting as one — and leaves the
// payloads in w.out, and a reply's split in w.split. The caller's body, and
// any slice it shares, is not written to.
func (w *wire) detach(body any) any {
	switch b := body.(type) {
	case *TaskReply:
		c := *b
		c.FrameStreams = w.copyOuter(b.FrameStreams)
		w.split = b.split
		body = &c
	case *ResultReply:
		c := *b
		c.Next.FrameStreams = w.copyOuter(b.Next.FrameStreams)
		w.split = b.Next.split
		body = &c
	case *ResultArgs:
		c := *b
		c.Frames = w.copyOuter(b.Frames)
		body = &c
	}
	w.slots, w.out = payloadSlots(w.slots[:0], body), w.out[:0]
	for _, slot := range w.slots {
		w.out = append(w.out, *slot)
		*slot = nil
	}
	return body
}

func (w *wire) copyOuter(s [][]byte) [][]byte {
	w.outer = append(w.outer[:0], s...)
	return w.outer
}

// write sends one message. Whatever fails, the connection is closed: a
// peer that got part of a message cannot be brought back in step, and one
// that got none would wait for it for ever.
func (w *wire) write(header, body any) error {
	err := w.writeMessage(header, w.detach(body))
	clear(w.outer) // the scratch must not keep a job's streams or input alive
	clear(w.out)
	w.split = payload{}
	if cap(w.scratch) > 2*splitWrite {
		w.scratch = nil // a whole input's large block is not kept for the next split
	}
	if err != nil {
		w.conn.Close()
	}
	return err
}

func (w *wire) writeMessage(header, body any) error {
	for i := range w.out {
		if n := w.payloadLen(i); n > maxSplitBytes {
			return fmt.Errorf("%w: a %d-byte payload is more than the %d bytes one may carry", errSection, n, maxSplitBytes)
		}
	}
	if err := w.enc.Encode(header); err != nil {
		return err
	}
	if err := w.enc.Encode(body); err != nil {
		return err
	}
	if err := w.writeUvarint(len(w.out)); err != nil {
		return err
	}
	for i := range w.out {
		if err := w.writeUvarint(w.payloadLen(i)); err != nil {
			return err
		}
	}
	for i, p := range w.out {
		var err error
		if i == 0 && w.split.frame != nil {
			w.scratch, err = w.split.writeTo(stallWriter{w}, w.scratch)
		} else {
			// A payload larger than the buffer goes from its slice to the
			// connection without passing through the buffer.
			_, err = w.bw.Write(p)
		}
		if err != nil {
			return err
		}
	}
	if err := w.bw.Flush(); err != nil || w.split.frame == nil {
		return err
	}
	return w.setDeadline(time.Time{})
}

// A stallWriter writes to the wire's buffer, each write first given the
// wire's stall to complete in; writeMessage lifts the deadline once the
// split and the rest of its message are out.
type stallWriter struct{ w *wire }

func (s stallWriter) Write(p []byte) (int, error) {
	if err := s.w.setDeadline(time.Now().Add(s.w.stall)); err != nil {
		return 0, err
	}
	return s.w.bw.Write(p)
}

// setDeadline sets the connection's write deadline, when the wire has a
// stall and its connection deadlines.
func (w *wire) setDeadline(t time.Time) error {
	if c, ok := w.conn.(net.Conn); ok && w.stall > 0 {
		return c.SetWriteDeadline(t)
	}
	return nil
}

// payloadLen is the length the section gives payload i: a split's own, for
// the first payload of a reply that carries one.
func (w *wire) payloadLen(i int) int {
	if i == 0 && w.split.frame != nil {
		return w.split.n
	}
	return len(w.out[i])
}

// writeTo writes the split to dst: its pieces framed into scratch's
// memory, and written splitWrite bytes or more at a time (a scratch that
// large goes past a bufio.Writer's buffer to the connection). It writes p.n
// bytes, or fails before it would write a byte more, and returns scratch
// for the next split.
func (p payload) writeTo(dst io.Writer, scratch []byte) ([]byte, error) {
	scratch, written := scratch[:0], 0
	for i := 0; i < p.pieces; i++ {
		var err error
		if scratch, err = p.frame(scratch, i); err != nil {
			return scratch[:0], err
		}
		if len(scratch) < splitWrite && i < p.pieces-1 {
			continue
		}
		if written += len(scratch); written > p.n {
			break
		}
		if _, err := dst.Write(scratch); err != nil {
			return scratch[:0], err
		}
		scratch = scratch[:0]
	}
	if written != p.n {
		return scratch[:0], fmt.Errorf("%w: a %d-byte split framed as %d bytes", errSection, p.n, written)
	}
	return scratch, nil
}

func (w *wire) writeUvarint(v int) error {
	_, err := w.bw.Write(w.varint[:binary.PutUvarint(w.varint[:], uint64(v))])
	return err
}

// readBody reads a message's body and section into body, or past them when
// body is nil. Any error closes the connection: it is never resynchronised.
func (w *wire) readBody(body any) error {
	err := w.dec.Decode(body)
	if err == nil {
		w.in = payloadSlots(w.in[:0], body)
		err = w.readSection(body == nil)
		clear(w.in) // the scratch must not keep the body alive
	}
	if err != nil {
		w.conn.Close()
	}
	return err
}

// readSection reads the payload section into the slots in w.in, each
// payload into its slot's own memory as far as that reaches. With skip
// there is no body to hold them: the payloads are read past.
func (w *wire) readSection(skip bool) error {
	count, err := w.readUvarint("count")
	if err != nil {
		return err
	}
	if skip {
		var total uint64
		for ; count > 0; count-- {
			n, err := w.readLength()
			if err != nil {
				return err
			}
			total += uint64(n)
		}
		for total > 0 {
			n := min(total, maxSplitBytes)
			if _, err := w.br.Discard(int(n)); err != nil {
				return truncated(err)
			}
			total -= n
		}
		return nil
	}
	if count != uint64(len(w.in)) {
		return fmt.Errorf("%w: %d payloads for a body with %d slots", errSection, count, len(w.in))
	}
	w.lens = w.lens[:0]
	for range w.in {
		n, err := w.readLength()
		if err != nil {
			return err
		}
		w.lens = append(w.lens, n)
	}
	for i, slot := range w.in {
		if *slot, err = readPayload(w.br, *slot, w.lens[i]); err != nil {
			return truncated(err)
		}
	}
	return nil
}

func (w *wire) readUvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(w.br)
	if err != nil {
		return 0, fmt.Errorf("%w: %s: %v", errSection, what, err)
	}
	return v, nil
}

// readLength reads one payload length. A length that would be negative as
// an int is, as a uvarint, merely too large.
func (w *wire) readLength() (int, error) {
	n, err := w.readUvarint("length")
	if err == nil && n > maxSplitBytes {
		err = fmt.Errorf("%w: a %d-byte payload is more than the %d bytes one may carry", errSection, n, maxSplitBytes)
	}
	return int(n), err
}

func truncated(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: truncated: %v", errSection, err)
}

// readPayload reads n bytes into dst[:0]: into dst's own memory as far as
// it reaches, and past that growing by what has already arrived or by
// payloadStep, whichever is more — so a forged length allocates no more
// than the bytes that came with it and one step. (A large read through an
// empty bufio.Reader goes straight to its destination.)
func readPayload(r io.Reader, dst []byte, n int) ([]byte, error) {
	dst = dst[:0]
	for len(dst) < n {
		if len(dst) == cap(dst) {
			grown := make([]byte, len(dst), len(dst)+min(n-len(dst), max(len(dst), payloadStep)))
			copy(grown, dst)
			dst = grown
		}
		next := dst[len(dst):min(n, cap(dst))]
		if _, err := io.ReadFull(r, next); err != nil {
			return dst, err
		}
		dst = dst[:len(dst)+len(next)]
	}
	return dst, nil
}

// The rpc.ServerCodec half: the master's end of a connection.

func (w *wire) ReadRequestHeader(r *rpc.Request) error {
	err := w.dec.Decode(r)
	if err != nil {
		close(w.gone) // net/rpc reads no further header after a failed one
	}
	return err
}

func (w *wire) ReadRequestBody(body any) error {
	err := w.readBody(body)
	if args, ok := body.(*TaskArgs); ok {
		args.gone = w.gone
	}
	return err
}

// WriteResponse also tells a reply that carries an assignment that it has
// been sent — or that it never will be: either way what it borrowed is the
// master's again.
func (w *wire) WriteResponse(r *rpc.Response, body any) error {
	err := w.write(r, body)
	if reply, ok := body.(interface{ sent() }); ok {
		reply.sent()
	}
	return err
}

// The rpc.ClientCodec half: a worker's end.

func (w *wire) WriteRequest(r *rpc.Request, body any) error { return w.write(r, body) }

func (w *wire) ReadResponseHeader(r *rpc.Response) error { return w.dec.Decode(r) }

func (w *wire) ReadResponseBody(body any) error { return w.readBody(body) }

func (w *wire) Close() error { return w.conn.Close() }
