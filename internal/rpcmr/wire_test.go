package rpcmr

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"net/rpc"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/points"
)

// totalAlloc is the bytes this process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// noise fills n bytes that no compressor or coincidence could reproduce.
func noise(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// tape is a connection played back from bytes: reads come from in, writes
// go to out, and Close is remembered.
type tape struct {
	in     io.Reader
	out    bytes.Buffer
	closed bool
}

func (c *tape) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *tape) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *tape) Close() error                { c.closed = true; return nil }

// message is one message as write puts it on a new connection, cut where
// its parts meet: the header (behind the gob type definition that precedes
// it), the body, and the payload section.
func message(t testing.TB, body any) (header, gobBody, section []byte) {
	t.Helper()
	response := &rpc.Response{ServiceMethod: "Master.Any", Seq: 7}
	whole := &tape{}
	if err := newWire(whole).write(response, body); err != nil {
		t.Fatal(err)
	}
	// The gob parts again, one at a time: a new encoder repeats itself.
	parts := &tape{}
	w := newWire(parts)
	var ends [2]int
	for i, part := range []any{response, w.detach(body)} {
		if err := w.enc.Encode(part); err != nil {
			t.Fatal(err)
		}
		if err := w.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		ends[i] = parts.out.Len()
	}
	all := whole.out.Bytes()
	if !bytes.HasPrefix(all, parts.out.Bytes()) {
		t.Fatal("a message does not begin with its gob header and body")
	}
	return all[:ends[0]:ends[0]], all[ends[0]:ends[1]:ends[1]], all[ends[1]:]
}

// section builds a payload section by hand.
func section(count uint64, lengths []uint64, payload []byte) []byte {
	s := binary.AppendUvarint(nil, count)
	for _, n := range lengths {
		s = binary.AppendUvarint(s, n)
	}
	return append(s, payload...)
}

// readBack plays header+rest to a fresh wire and reads it into body.
func readBack(header, rest []byte, body any) (*tape, error) {
	conn := &tape{in: io.MultiReader(bytes.NewReader(header), bytes.NewReader(rest))}
	w := newWire(conn)
	var h rpc.Response
	if err := w.ReadResponseHeader(&h); err != nil {
		return conn, err
	}
	return conn, w.ReadResponseBody(body)
}

// TestWireRoundTrip: every body that carries payloads comes back as it was
// sent, through the section and not through gob; a shared outer slice is
// left as it was.
func TestWireRoundTrip(t *testing.T) {
	streams := [][]byte{noise(1, 300), nil, noise(2, 70000)}
	kept := append([][]byte(nil), streams...)
	bodies := []struct{ sent, into any }{
		{&TaskReply{Kind: TaskMap, TaskID: 3, JobName: "j", Params: []byte("p"), Frames: noise(3, 5000)}, &TaskReply{}},
		{&TaskReply{Kind: TaskReduce, TaskID: 1, FrameStreams: streams}, &TaskReply{}},
		{&TaskReply{}, &TaskReply{}},
		{&ResultReply{Accepted: true, Next: TaskReply{Kind: TaskReduce, FrameStreams: streams}}, &ResultReply{}},
		{&ResultArgs{Kind: TaskMap, WorkerID: "w", TaskID: 2, Frames: streams, Stats: mapreduce.FrameStats{MapIn: 9}}, &ResultArgs{}},
		{&ResultArgs{Kind: TaskReduce, WorkerID: "w", Frames: [][]byte{noise(4, 999)}}, &ResultArgs{}},
		{&RegisterArgs{WorkerID: "w"}, &RegisterArgs{}},
	}
	for _, b := range bodies {
		header, gobBody, sec := message(t, b.sent)
		for _, p := range [][]byte{noise(3, 5000), noise(2, 70000), noise(4, 999)} {
			if bytes.Contains(gobBody, p[:64]) {
				t.Errorf("%T: a payload crossed inside the gob body", b.sent)
			}
		}
		conn, err := readBack(header, append(gobBody, sec...), b.into)
		if err != nil || conn.closed {
			t.Fatalf("%T: read back: %v (closed %v)", b.sent, err, conn.closed)
		}
		if !samePayloads(b.sent, b.into) {
			t.Errorf("%T: payloads differ after the round trip", b.sent)
		}
		// And around the payloads, gob has done what it always did.
		if !reflect.DeepEqual(newWire(&tape{}).detach(b.sent), newWire(&tape{}).detach(b.into)) {
			t.Errorf("%T: fields differ after the round trip", b.sent)
		}
	}
	if !reflect.DeepEqual(streams, kept) {
		t.Error("writing a body emptied the outer slice it shares with the job")
	}
}

// samePayloads compares two bodies slot by slot, nil and empty alike.
func samePayloads(a, b any) bool {
	sa, sb := payloadSlots(nil, a), payloadSlots(nil, b)
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if !bytes.Equal(*sa[i], *sb[i]) {
			return false
		}
	}
	return true
}

// TestPayloadLandsInRecycledMemory: the payload is copied once per hop and
// lands in memory that already exists. Over a net.Pipe, a TaskReply with a
// 1 MiB split read into an emptied TaskReply that has held one costs under
// 64 KiB — stock gob allocated the megabyte twice — and so does a
// ResultReply whose Next carries it.
func TestPayloadLandsInRecycledMemory(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	master, worker := newWire(a), newWire(b)
	split := noise(5, 1<<20)
	exchange := func(sent, into any) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- master.WriteResponse(&rpc.Response{ServiceMethod: "Master.Any"}, sent) }()
		var h rpc.Response
		if err := worker.ReadResponseHeader(&h); err != nil {
			t.Fatal(err)
		}
		if err := worker.ReadResponseBody(into); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	var task TaskReply
	exchange(&TaskReply{Kind: TaskMap, Frames: split}, &task) // grows the slot; the type tables cross
	exchange(&ResultReply{}, &ResultReply{})

	task = task.emptied()
	before := totalAlloc()
	exchange(&TaskReply{Kind: TaskMap, TaskID: 1, Frames: split}, &task)
	if grew := totalAlloc() - before; grew >= 64<<10 {
		t.Errorf("a 1 MiB split into a recycled TaskReply allocated %d bytes, want < 64 KiB", grew)
	}
	if task.TaskID != 1 || !bytes.Equal(task.Frames, split) {
		t.Error("the recycled TaskReply does not hold what was sent")
	}

	reply := ResultReply{Next: task.emptied()}
	before = totalAlloc()
	exchange(&ResultReply{Accepted: true, Next: TaskReply{Kind: TaskMap, TaskID: 2, Frames: split}}, &reply)
	if grew := totalAlloc() - before; grew >= 64<<10 {
		t.Errorf("a 1 MiB split riding a ResultReply into a recycled Next allocated %d bytes, want < 64 KiB", grew)
	}
	if !reply.Accepted || reply.Next.TaskID != 2 || !bytes.Equal(reply.Next.Frames, split) {
		t.Error("the recycled ResultReply does not hold what was sent")
	}

	// A reduce task's streams after a map task's split: each into its slot.
	streams := [][]byte{noise(6, 4000), noise(7, 9000)}
	task = reply.Next.emptied()
	exchange(&TaskReply{Kind: TaskReduce, FrameStreams: streams}, &task)
	if task.Kind != TaskReduce || len(task.Frames) != 0 || !reflect.DeepEqual(task.FrameStreams, streams) {
		t.Error("a reduce task into the TaskReply that held a map task: wrong payloads")
	}
}

// TestHostileSectionRejected: a section no writer made is a typed error
// before anything is sized from it, and the connection is closed — never
// resynchronised.
func TestHostileSectionRejected(t *testing.T) {
	sent := &TaskReply{Kind: TaskReduce, FrameStreams: [][]byte{noise(1, 100), noise(2, 100)}}
	header, gobBody, good := message(t, sent)
	payload := append(noise(1, 100), noise(2, 100)...)
	if want := section(3, []uint64{0, 100, 100}, payload); !bytes.Equal(good, want) {
		t.Fatalf("the section of a 2-stream reduce task is % x, want count 3, lengths 0 100 100, the bytes", good[:8])
	}
	negative := int64(-1)
	hostile := []struct {
		name    string
		section []byte
	}{
		{"length above the cap", section(3, []uint64{0, maxSplitBytes + 1, 100}, payload)},
		{"negative length", section(3, []uint64{0, uint64(negative), 100}, payload)},
		{"more payloads than slots", section(4, []uint64{0, 100, 100, 0}, payload)},
		{"fewer payloads than slots", section(2, []uint64{100, 100}, payload)},
		{"2^60 payloads", section(1<<60, nil, nil)},
		{"no section", nil},
		{"lengths cut short", section(3, []uint64{0, 100}, nil)},
		{"cut mid-payload", section(3, []uint64{0, 100, 100}, payload[:150])},
		{"a cap-sized payload that never comes", section(3, []uint64{0, maxSplitBytes, 100}, payload)},
	}
	for _, h := range hostile {
		var into TaskReply
		before := totalAlloc()
		conn, err := readBack(header, append(bytes.Clone(gobBody), h.section...), &into)
		grew := totalAlloc() - before
		if !errors.Is(err, errSection) {
			t.Errorf("%s: error %v, want one that wraps errSection", h.name, err)
		}
		if !conn.closed {
			t.Errorf("%s: the connection was left open", h.name)
		}
		if grew > payloadStep+256<<10 {
			t.Errorf("%s: allocated %d bytes for a %d-byte section", h.name, grew, len(h.section))
		}
	}
	// A skipped body is held to the same lengths.
	conn, err := readBack(header, append(bytes.Clone(gobBody), section(1, []uint64{maxSplitBytes + 1}, nil)...), nil)
	if !errors.Is(err, errSection) || !conn.closed {
		t.Errorf("skipped body with an oversized payload: error %v, closed %v", err, conn.closed)
	}
}

// TestSkippedBodyKeepsStreamInStep: a request for a method the master does
// not have carries its payloads all the same; the master reads past them
// (ReadRequestBody(nil)), the worker past the error reply's body, and the
// next call on the same connection is answered.
func TestSkippedBodyKeepsStreamInStep(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{}, 0, WorkerConfig{})
	client, err := dial(master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 3; i++ {
		args := &ResultArgs{Kind: TaskMap, WorkerID: "w", Frames: [][]byte{noise(1, 70000), nil, noise(2, 10)}}
		err := client.Call("Master.NoSuchMethod", args, &ResultReply{})
		if err == nil || !strings.Contains(err.Error(), "can't find method") {
			t.Fatalf("unknown method: %v", err)
		}
		var st Status
		if err := client.Call("Master.Status", &StatusArgs{}, &st); err != nil {
			t.Fatalf("call after a skipped body: %v", err)
		}
	}
}

// TestTruncatedPayloadClosesConnection: a worker that dies mid-payload
// costs the master that connection and nothing else — the report is not
// half-accepted, and a job runs on the workers that remain.
func TestTruncatedPayloadClosesConnection(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 4}, 2, WorkerConfig{})
	conn, err := net.Dial("tcp", master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := newWire(conn)
	stripped := w.detach(&ResultArgs{Kind: TaskMap, WorkerID: "liar", Frames: [][]byte{make([]byte, 1000)}})
	if err := w.enc.Encode(&rpc.Request{ServiceMethod: "Master.Report", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.enc.Encode(stripped); err != nil {
		t.Fatal(err)
	}
	w.bw.Write(section(1, []uint64{1000}, make([]byte, 10)))
	if err := w.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read %d bytes, error %v from the master after a truncated payload; want the connection closed", n, err)
	}
	if got := master.WorkerCount(); got != 2 {
		t.Errorf("%d workers known, want 2: the truncated report must not have reached its handler", got)
	}
	res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, setFrames(wcInput, nil))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)
}

// fuzzSeeds are the bodies FuzzWireSection starts from, and the kind of
// destination each is read into.
func fuzzSeeds() []any {
	streams := [][]byte{noise(1, 40), nil, noise(2, 300)}
	return []any{
		&TaskReply{Kind: TaskMap, TaskID: 3, Attempt: 1, JobName: "skyline/partition", Params: []byte(`{"dim":3}`), Reducers: 2, Frames: noise(3, 600)},
		&ResultReply{Accepted: true, Next: TaskReply{Kind: TaskReduce, TaskID: 1, JobName: "skyline/merge", FrameStreams: streams}},
		&ResultArgs{Kind: TaskMap, WorkerID: "w1", TaskID: 2, Frames: streams, Stats: mapreduce.FrameStats{MapIn: 50}},
		&ResultArgs{Kind: TaskReduce, WorkerID: "w1", TaskID: 1, Attempt: 2, Frames: [][]byte{noise(4, 500)}, Stats: mapreduce.FrameStats{ReduceIn: 40, PeakBytes: 4096}},
	}
}

func fuzzDestination(kind uint8) any {
	switch kind % 4 {
	case 0:
		return &TaskReply{}
	case 1:
		return &ResultReply{}
	default:
		return &ResultArgs{}
	}
}

// FuzzWireSection: whatever bytes follow a valid header — a body and a
// section, or neither — reading them yields what a writer sent or an error,
// never a panic; what it yields survives another trip unchanged; and the
// section allocates no more than the bytes supplied and one growth step,
// whatever lengths it claims.
func FuzzWireSection(f *testing.F) {
	var header []byte
	sent := map[string]any{}
	for kind, body := range fuzzSeeds() {
		h, gobBody, sec := message(f, body)
		header = h
		rest := append(gobBody, sec...)
		sent[string(rest)] = body
		f.Add(uint8(kind), rest)
		f.Add(uint8(kind), rest[:len(rest)-5])
		f.Add(uint8(kind+1), rest)
	}
	f.Fuzz(func(t *testing.T, kind uint8, rest []byte) {
		conn := &tape{in: io.MultiReader(bytes.NewReader(header), bytes.NewReader(rest))}
		w := newWire(conn)
		var h rpc.Response
		if err := w.ReadResponseHeader(&h); err != nil {
			t.Fatal(err)
		}
		// readBody, taken apart so that the section alone is measured.
		body := fuzzDestination(kind)
		if err := w.dec.Decode(body); err != nil {
			return
		}
		w.in = payloadSlots(w.in[:0], body)
		before := totalAlloc()
		err := w.readSection(false)
		if grew := totalAlloc() - before; grew > uint64(len(rest))+payloadStep+16<<10 {
			t.Fatalf("the section of a %d-byte message allocated %d bytes", len(rest), grew)
		}
		if err != nil {
			if !errors.Is(err, errSection) {
				t.Fatalf("section error %v does not wrap errSection", err)
			}
			return
		}
		if orig, ok := sent[string(rest)]; ok && reflect.TypeOf(orig) == reflect.TypeOf(body) && !samePayloads(orig, body) {
			t.Fatal("a message read back differs from the one written")
		}
		// What was read is what a writer would send: it reads back the same.
		again := fuzzDestination(kind)
		h2, gobBody, sec := message(t, body)
		if conn, err := readBack(h2, append(gobBody, sec...), again); err != nil || conn.closed {
			t.Fatalf("a body that was read cannot be written and read again: %v", err)
		}
		if !samePayloads(body, again) {
			t.Fatal("a body changed on its second trip")
		}
	})
}

// firstRowJob keeps one row in a thousand: a map task whose sealed output is
// next to nothing, so that what the task allocates is what moving its input
// costs.
func firstRowJob() Job {
	return Job{FrameJob: mapreduce.FrameJob{
		Mapper: func(row []float64, emit mapreduce.EmitPoint) error {
			if int(row[0])%1000 == 0 {
				emit(0, row)
			}
			return nil
		},
		Folder: mapreduce.Assembled(func(_ int, blk *points.Block) (*points.Block, error) {
			return blk.Slice(0, 1), nil
		}),
	}}
}

var firstRowOnce sync.Once

// TestWarmMapTaskAllocatesNoSplit: once a worker and a job are warm, a map
// task allocates nothing the size of a split on either side — the master
// frames each split from the input through its connection's scratch as it
// writes it, the worker reads into the memory the last split left. One
// worker's share is all eight splits; from one split's first frame to the
// next's (one split: size, write, receive, walk, fetch the next) the
// process allocates under 64 KiB, for splits of 1.2 MB.
func TestWarmMapTaskAllocatesNoSplit(t *testing.T) {
	ensureJobs()
	firstRowOnce.Do(func() {
		RegisterJob("first-row", func([]byte) (Job, error) { return firstRowJob(), nil })
	})
	const rows, dim, splits = 50000, 3, 8 // 1.2 MB of coordinates a split
	data := make(points.Set, rows*splits)
	for i := range data {
		data[i] = points.Point{float64(i), 1, 2}
	}
	master, _, _ := newCluster(t, MasterConfig{SplitSize: rows}, 1, WorkerConfig{})
	var writtenAt []uint64 // TotalAlloc as each split's first frame is written
	input := FrameRows(len(data), func(lo, hi int) (int, error) {
		return points.FrameRowsLen(0, hi-lo, dim), nil
	}, func(dst []byte, lo, hi int) ([]byte, error) {
		if lo%rows == 0 { // one worker: one split written at a time
			writtenAt = append(writtenAt, totalAlloc())
		}
		return points.AppendFrameRows(dst, 0, data[lo:hi])
	})
	if _, err := master.Run(context.Background(), JobSpec{Name: "first-row", Reducers: 1}, input); err != nil {
		t.Fatal(err)
	}
	if len(writtenAt) != splits {
		t.Fatalf("%d splits written, want %d", len(writtenAt), splits)
	}
	// The first split grows the scratch and the worker's split memory.
	for i := 2; i < splits; i++ {
		if grew := writtenAt[i] - writtenAt[i-1]; grew >= 64<<10 {
			t.Errorf("split %d (%d bytes) cost the process %d bytes, want < 64 KiB", i-1, rows*dim*8, grew)
		}
	}
}

// countingWriter records the size of every write.
type countingWriter struct {
	bytes.Buffer
	writes []int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestSplitWrittenAsItsFrames: a split crosses the wire as the bytes it
// was sealed into before the master streamed it. A set's split is
// points.AppendFrameRows over its WalkRows-row pieces — a short last piece,
// a one-row split, a split of exactly one piece — and a whole input's block
// is points.AppendFrameCodec's frame under the job's codec, FrameDefault or
// FrameAuto. A split of more than splitWrite bytes goes out in writes of at
// least splitWrite bytes but the last, and on a TaskReply and on a
// piggybacked ResultReply.Next alike the section gives its exact length and
// the receiver gets its bytes.
func TestSplitWrittenAsItsFrames(t *testing.T) {
	data := frameClusterData(5000, 6, 17) // 6 000 rows
	in := setFrames(data, nil)
	for _, c := range []struct{ size, split, rows int }{
		{1100, 0, 1100}, // 512 + 512 + 76
		{1, 7, 1},
		{512, 2, 512},
		{6000, 0, 6000}, // eleven pieces and a short one: 288 000 bytes
	} {
		lo := c.split * c.size
		var want []byte
		for a := lo; a < lo+c.rows; a += mapreduce.WalkRows {
			want, _ = points.AppendFrameRows(want, 0, data[a:min(a+mapreduce.WalkRows, lo+c.rows)])
		}
		p, err := in.split(c.split, c.size)
		if err != nil {
			t.Fatal(err)
		}
		var w countingWriter
		scratch, err := p.writeTo(&w, []byte("left over"))
		if err != nil || p.n != len(want) || !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("a %d-row split: %d bytes announced, %d written (%v); want its %d bytes of frames", c.rows, p.n, w.Len(), err, len(want))
		}
		for i, n := range w.writes[:len(w.writes)-1] {
			if n < splitWrite {
				t.Errorf("a %d-row split: write %d of %d is %d bytes, want at least %d", c.rows, i, len(w.writes), n, splitWrite)
			}
		}
		if big := len(want) > splitWrite; big != (len(w.writes) > 1) || len(scratch) != 0 {
			t.Errorf("a %d-byte split went out in %d writes, leaving %d bytes of scratch", len(want), len(w.writes), len(scratch))
		}
		var task TaskReply
		var result ResultReply
		for _, rt := range []struct {
			sent, into any
			frames     *[]byte
		}{
			{&TaskReply{Kind: TaskMap, split: p}, &task, &task.Frames},
			{&ResultReply{Next: TaskReply{Kind: TaskMap, split: p}}, &result, &result.Next.Frames},
		} {
			header, gobBody, sec := message(t, rt.sent)
			if _, err := readBack(header, append(gobBody, sec...), rt.into); err != nil || !bytes.Equal(*rt.frames, want) {
				t.Errorf("a %d-row split on a %T: %d bytes received (%v), want %d", c.rows, rt.sent, len(*rt.frames), err, len(want))
			}
		}
	}

	rng := rand.New(rand.NewSource(3))
	// corr packs; noisy, random bits, does not: FrameAuto keeps it v1.
	corr, noisy := points.NewBlock(4, 600), points.NewBlock(4, 600)
	for i := 0; i < 600; i++ {
		base := float64(i) / 600
		corr.AppendRow([]float64{base, base + 1e-9, base, 1 - base})
		noisy.AppendRow([]float64{math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())})
	}
	inputs := [][]*points.Block{{corr, noisy}, {noisy}}
	for _, codec := range []points.FrameCodec{points.FrameDefault, points.FrameAuto} {
		whole := WholeFrames([]int{1200, 600}, []int{2, 1}, func(task, block int) (int, error) {
			return points.FrameCodecLen(0, inputs[task][block], codec), nil
		}, func(dst []byte, task, block int) ([]byte, error) {
			return points.AppendFrameCodec(dst, 0, inputs[task][block], codec), nil
		})
		packed := 0
		for split, blk := range []*points.Block{corr, noisy, noisy} {
			got, err := splitBytes(whole, split, 0)
			if want := points.AppendFrameCodec(nil, 0, blk, codec); err != nil || !bytes.Equal(got, want) {
				t.Errorf("codec %v, split %d: %d bytes (%v), want the block's %d-byte frame", codec, split, len(got), err, len(want))
			}
			if len(got) > 0 && got[0] == points.FrameVersion2 {
				packed++
			}
		}
		if want := map[points.FrameCodec]int{points.FrameAuto: 1}[codec]; packed != want {
			t.Errorf("codec %v: %d blocks went as v2 frames, want %d", codec, packed, want)
		}
	}

	// A split whose frames are not the length it was sized to is refused
	// before a byte more than it was sized to is written.
	long := payload{n: 5, pieces: 1, frame: func(dst []byte, _ int) ([]byte, error) { return append(dst, noise(9, 9)...), nil }}
	var w bytes.Buffer
	if _, err := long.writeTo(&w, nil); !errors.Is(err, errSection) || w.Len() != 0 {
		t.Errorf("a 5-byte split framed as 9: %d bytes written, error %v", w.Len(), err)
	}
}

// TestStalledPeerGivesUpItsSplit: the master's write of a split waits on a
// peer that takes none of it no longer than the wire's stall; then the
// connection is closed and the reply told it was sent, so Run, which waits
// for every split it handed out to be written, is not held by a worker that
// stopped reading. A split written to a reading peer leaves no deadline
// behind for the connection's later messages.
func TestStalledPeerGivesUpItsSplit(t *testing.T) {
	data := frameClusterData(2000, 3, 4)
	p, err := setFrames(data, nil).split(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	const stall = 20 * time.Millisecond
	header := &rpc.Response{ServiceMethod: "Master.NextSplit"}

	near, far := net.Pipe()
	defer far.Close()
	go func() { _, _ = io.Copy(io.Discard, far) }()
	w := newWire(near)
	w.stall = stall
	if err := w.WriteResponse(header, &TaskReply{Kind: TaskMap, split: p}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * stall)
	if err := w.WriteResponse(header, &TaskReply{Kind: TaskWait}); err != nil {
		t.Errorf("a message after a written split: %v", err)
	}

	near, far = net.Pipe()
	defer far.Close()
	w = newWire(near)
	w.stall = stall
	var sent bool
	start := time.Now()
	err = w.WriteResponse(header, &TaskReply{Kind: TaskMap, split: p, onSent: func() { sent = true }})
	if !errors.Is(err, os.ErrDeadlineExceeded) || !sent || time.Since(start) > time.Second {
		t.Errorf("a split to a peer that reads nothing: %v after %v, reply told it was sent: %v", err, time.Since(start), sent)
	}
	if _, err := near.Write([]byte{0}); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("the stalled connection is still open: %v", err)
	}
}

// TestWireLetsGoOfALargeBlocksScratch: the scratch a connection frames
// splits into is kept for its next split, but not when one whole input's
// block grew it past twice splitWrite.
func TestWireLetsGoOfALargeBlocksScratch(t *testing.T) {
	small, _ := setFrames(frameClusterData(2000, 3, 4), nil).split(0, 1000)
	large := points.NewBlock(8, 0)
	for i := 0; i < 2*splitWrite/64+1; i++ {
		large.AppendRow([]float64{1, 2, 3, 4, 5, 6, 7, float64(i)})
	}
	whole, _ := WholeFrames([]int{large.Len()}, []int{1}, func(int, int) (int, error) {
		return points.FrameV1Len(0, large), nil
	}, func(dst []byte, _, _ int) ([]byte, error) {
		return points.AppendFrame(dst, 0, large), nil
	}).split(0, 0)
	near, far := net.Pipe()
	defer far.Close()
	go func() { _, _ = io.Copy(io.Discard, far) }()
	w := newWire(near)
	header := &rpc.Response{ServiceMethod: "Master.NextSplit"}
	for _, c := range []struct {
		name string
		p    payload
		kept bool
	}{{"a split", small, true}, {"a large block", whole, false}} {
		if err := w.WriteResponse(header, &TaskReply{Kind: TaskMap, split: c.p}); err != nil {
			t.Fatal(err)
		}
		if kept := w.scratch != nil; kept != c.kept {
			t.Errorf("after %s (%d bytes) the scratch is kept: %v, want %v", c.name, c.p.n, kept, c.kept)
		}
	}
}
