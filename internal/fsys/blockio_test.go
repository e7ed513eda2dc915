package fsys

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"springfs/internal/spring"
	"springfs/internal/vm"
)

// blockStore is a file kept as a sparse map of blocks, served by the
// kit's block path and pager the way cryptfs, compfs and snapfs are: the
// in-memory layer under test. An absent block is a hole.
type blockStore struct {
	FilePager
	Blocks

	mu     sync.Mutex // held by a view
	blocks map[int64][]byte
	length int64
	// fail, if set, is asked before every block read and write.
	fail func(bn int64, write bool) error
	// lengths and moves count the pager's GetLength and mover calls.
	lengths, moves int
	// onLength, if set, runs as GetLength returns.
	onLength func()
}

func newBlockStore() *blockStore {
	s := &blockStore{blocks: map[int64][]byte{}}
	s.FilePager, s.Blocks = NewConnectionTable(nil).NewPager(s, false), Blocks{Viewer: s}
	return s
}

func (s *blockStore) View(bool) (BlockView, error) { s.mu.Lock(); return s, nil }
func (s *blockStore) Done()                        { s.mu.Unlock() }
func (s *blockStore) Length() int64                { return s.length }
func (s *blockStore) Grow(_, end int64) error      { s.length = end; return nil }

func (s *blockStore) ReadBlock(bn int64, dst []byte) error {
	if len(dst) != BlockSize {
		return errors.New("short block buffer")
	}
	if s.fail != nil {
		if err := s.fail(bn, false); err != nil {
			return err
		}
	}
	clear(dst)
	copy(dst, s.blocks[bn])
	return nil
}

func (s *blockStore) WriteBlock(bn int64, src []byte) error {
	if len(src) != BlockSize {
		return errors.New("short block buffer")
	}
	if s.fail != nil {
		if err := s.fail(bn, true); err != nil {
			return err
		}
	}
	s.blocks[bn] = append([]byte(nil), src...)
	clear(src) // the writer may scribble on the scratch block
	return nil
}

func (s *blockStore) MoveIn(offset, size vm.Offset) ([]byte, error) {
	s.moves++
	return s.Blocks.MoveIn(offset, size)
}

func (s *blockStore) MoveOut(offset vm.Offset, data []byte) error {
	s.moves++
	return s.Blocks.MoveOut(offset, data)
}

func (s *blockStore) GetLength() (vm.Offset, error) {
	s.mu.Lock()
	s.lengths++
	l, hook := s.length, s.onLength
	s.mu.Unlock()
	if hook != nil {
		hook()
	}
	return l, nil
}

// Resize cuts the store the way compfs does: blocks past the end are
// dropped, the straddling one zero-tailed.
func (s *blockStore) Resize(l vm.Offset) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l < s.length {
		for bn := range s.blocks {
			if bn*BlockSize >= l {
				delete(s.blocks, bn)
			}
		}
		if err := ZeroTail(s, l); err != nil {
			return err
		}
	}
	s.length = l
	return nil
}

func (s *blockStore) Stat() (Attributes, error) {
	l, err := s.GetLength()
	return Attributes{Length: l}, err
}
func (s *blockStore) Sync() error { return nil }

// holder is a cache manager bound to a file: it keeps the pager the bind
// hands it, serves dirty pages to FlushBack and records the coherency
// actions it receives.
type holder struct {
	vm.NopCache
	pager vm.PagerObject
	dirty map[vm.Offset][]byte // page offset → modified bytes
	calls []string
}

func bindHolder(t *testing.T, f File) *holder {
	t.Helper()
	h := &holder{dirty: map[vm.Offset][]byte{}}
	if _, err := f.Bind(h, vm.RightsWrite, 0, 0); err != nil || h.pager == nil {
		t.Fatalf("bind: %v", err)
	}
	return h
}

func (h *holder) ManagerName() string           { return "holder" }
func (h *holder) ManagerDomain() *spring.Domain { return nil }
func (h *holder) NewConnection(p vm.PagerObject) (vm.CacheObject, vm.CacheRights) {
	h.pager = p
	return h, vm.RightsToken{Manager: "holder"}
}

func (h *holder) FlushBack(offset, size vm.Offset) []vm.Data {
	h.calls = append(h.calls, "flush")
	var out []vm.Data
	for off, b := range h.dirty {
		if off >= offset && off < offset+size {
			out = append(out, vm.Data{Offset: off, Bytes: b})
			delete(h.dirty, off)
		}
	}
	return out
}

func (h *holder) DeleteRange(offset, size vm.Offset) {
	h.calls = append(h.calls, "delete")
}

// model is the naive reference: one flat byte slice.
type model struct{ data []byte }

func (m *model) readAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *model) writeAt(p []byte, off int64) {
	if end := int(off) + len(p); end > len(m.data) {
		m.data = append(m.data, make([]byte, end-len(m.data))...)
	}
	copy(m.data[off:], p)
}

func (m *model) setLength(l int64) {
	if l < int64(len(m.data)) {
		m.data = m.data[:l]
	} else {
		m.writeAt(nil, l)
	}
}

func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i%251)
	}
	return p
}

// blockOp is one operation of the block path: a write, read or length
// change at a byte offset, or a page-in or page-out of whole pages.
type blockOp struct {
	kind byte // one of blockKinds
	off  int64
	n    int
}

// blockKinds are the kinds of blockOp: write, read, length, in, out.
const blockKinds = "wrlio"

// run applies op to the store and to the model and reports the first
// difference between them.
func (op blockOp) run(t *testing.T, s *blockStore, h *holder, ref *model, seed byte) {
	t.Helper()
	switch op.kind {
	case 'w':
		p := pattern(op.n, seed)
		if done, err := s.WriteAt(p, op.off); err != nil || done != op.n {
			t.Fatalf("%+v: WriteAt = %d, %v", op, done, err)
		}
		if op.n > 0 {
			ref.writeAt(p, op.off)
		}
	case 'r':
		got, want := make([]byte, op.n), make([]byte, op.n)
		n, err := s.ReadAt(got, op.off)
		wn, werr := ref.readAt(want, op.off)
		if op.n == 0 && op.off < int64(len(ref.data)) {
			wn, werr = 0, nil
		}
		if n != wn || err != werr {
			t.Fatalf("%+v: ReadAt = %d, %v; model %d, %v", op, n, err, wn, werr)
		}
		if !bytes.Equal(got[:n], want[:wn]) {
			t.Fatalf("%+v: ReadAt bytes differ from the model", op)
		}
	case 'l':
		if err := s.SetLength(op.off); err != nil {
			t.Fatalf("%+v: SetLength: %v", op, err)
		}
		ref.setLength(op.off)
	case 'i':
		off, size := op.off/BlockSize*BlockSize, int64(op.n/BlockSize*BlockSize)
		got, err := h.pager.PageIn(off, size, vm.RightsRead)
		if err != nil {
			t.Fatalf("%+v: PageIn: %v", op, err)
		}
		want := make([]byte, size)
		_, _ = ref.readAt(want, off)
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: PageIn differs from the model", op)
		}
	case 'o':
		off, size := op.off/BlockSize*BlockSize, int64(op.n/BlockSize*BlockSize)
		p := pattern(int(size), seed)
		if err := h.pager.PageOut(off, size, p); err != nil {
			t.Fatalf("%+v: PageOut: %v", op, err)
		}
		if end := int64(len(ref.data)); off < end {
			ref.writeAt(p[:min(size, end-off)], off)
		}
	}
	if l, _ := s.GetLength(); l != int64(len(ref.data)) {
		t.Fatalf("%+v: length %d, model %d", op, l, len(ref.data))
	}
}

// blockOps is the table TestBlockHelpersAgainstModel runs and the seed
// corpus of FuzzBlockPath.
var blockOps = []blockOp{
	{'w', 0, BlockSize},                  // exact block
	{'w', BlockSize - 100, 300},          // unaligned head
	{'w', 2 * BlockSize, BlockSize + 17}, // unaligned tail
	{'w', 5, 10},                         // inside one block
	{'w', BlockSize / 2, 2 * BlockSize},  // spans three blocks
	{'w', 6*BlockSize + 3, 50},           // extends the length, sparse
	{'w', 3, 0},                          // empty
	{'r', BlockSize, BlockSize},          // exact block
	{'r', 0, 7*BlockSize + 53},           // whole file
	{'r', 100, BlockSize},                // unaligned head
	{'r', 2 * BlockSize, BlockSize + 17}, // unaligned tail
	{'r', 4 * BlockSize, BlockSize},      // hole
	{'r', 6*BlockSize + 33, 100},         // past the end, partly
	{'r', 6*BlockSize + 53, 10},          // at the end
	{'r', 8 * BlockSize, 10},             // beyond the end
	{'r', 7, 0},                          // empty
	{'i', 0, 8 * BlockSize},              // page-in past the end
	{'o', 5 * BlockSize, 3 * BlockSize},  // page-out past the end, cut
	{'o', 9 * BlockSize, BlockSize},      // page-out wholly past the end
	{'l', 10 * BlockSize, 0},             // regrow: nothing paged out past the end shows
	{'r', 6 * BlockSize, 4 * BlockSize},  // ...checked
	{'l', 2*BlockSize + 100, 0},          // shrink mid-block
	{'l', 5 * BlockSize, 0},              // regrow: zeros past the cut
	{'r', 0, 5 * BlockSize},              // ...checked
	{'o', 0, 5 * BlockSize},              // page-out of the whole file
	{'l', BlockSize, 0},                  // shrink to a boundary
	{'w', 3*BlockSize + 1, BlockSize},    // sparse write past the end
	{'i', BlockSize, 4 * BlockSize},      // page-in of the hole and tail
}

// TestBlockHelpersAgainstModel drives the kit's block path — WriteAt,
// ReadAt, SetLength, and the pager's page-in and page-out — over the
// in-memory block store and the flat model with the same operations, and
// compares every result and length.
func TestBlockHelpersAgainstModel(t *testing.T) {
	s, ref := newBlockStore(), &model{}
	h := bindHolder(t, s)
	for i, op := range blockOps {
		op.run(t, s, h, ref, byte(i*37))
	}
}

// FuzzBlockPath runs random sequences of block-path operations against
// the model. Each five bytes of input are one operation: a kind (an index
// into blockKinds), and an offset and size of up to 16 pages.
func FuzzBlockPath(f *testing.F) {
	var seed []byte
	for _, op := range blockOps {
		kind := byte(strings.IndexByte(blockKinds, op.kind))
		seed = append(seed, kind, byte(op.off>>8), byte(op.off), byte(op.n>>8), byte(op.n))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, in []byte) {
		s, ref := newBlockStore(), &model{}
		h := bindHolder(t, s)
		for i := 0; i+5 <= len(in) && i < 5*64; i += 5 {
			op := blockOp{
				kind: blockKinds[int(in[i])%len(blockKinds)],
				off:  int64(in[i+1])<<8 | int64(in[i+2]),
				n:    int(in[i+3])<<8 | int(in[i+4]),
			}
			op.run(t, s, h, ref, byte(i))
		}
	})
}

// TestZeroTailAgainstModel shrinks the store and the flat model to the same
// lengths — zero-tailing the one, truncating the other — and regrows both:
// the store must read back as the model does, zeros past every cut.
func TestZeroTailAgainstModel(t *testing.T) {
	const B = BlockSize
	s, ref := newBlockStore(), &model{}
	p := pattern(3*B, 11)
	if _, err := s.WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	ref.writeAt(p, 0)
	ios := 0
	s.fail = func(int64, bool) error { ios++; return nil }

	for _, c := range []struct {
		name   string
		length int64
		ios    int
	}{
		{"aligned", 2 * B, 0},
		{"mid-block", B + 100, 2},
		{"last-byte-of-block", B - 1, 2},
		{"zero", 0, 0},
		{"hole", 5*B + 7, 2},
	} {
		ios = 0
		if err := ZeroTail(s, c.length); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ios != c.ios {
			t.Errorf("%s: %d block I/Os, want %d", c.name, ios, c.ios)
		}
		// The caller owns the length and the whole blocks past it: the
		// model truncates, the store drops them, then both regrow.
		ref.setLength(min(c.length, int64(len(ref.data))))
		for bn := range s.blocks {
			if bn*B >= c.length {
				delete(s.blocks, bn)
			}
		}
		ref.setLength(6 * B)
		s.length = 6 * B
		got, want := make([]byte, 6*B), make([]byte, 6*B)
		if _, err := s.ReadAt(got, 0); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := ref.readAt(want, 0); err != nil {
			t.Fatalf("%s: model: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: regrown store differs from the model", c.name)
		}
		ref.data = ref.data[:min(int(c.length), len(ref.data))]
	}
}

// landingStore records where each block read landed.
type landingStore struct {
	*blockStore
	landed map[int64]*byte
}

func (s *landingStore) View(bool) (BlockView, error) { s.mu.Lock(); return s, nil }
func (s *landingStore) ReadBlock(bn int64, dst []byte) error {
	if len(dst) != BlockSize {
		return errors.New("short block buffer")
	}
	s.landed[bn] = &dst[0]
	return nil
}

// TestReadBlocksAtReadsWholeBlocksInPlace checks the fast path every layer
// shares: an aligned whole block lands in the caller's buffer without a
// scratch copy, and only an unaligned head or tail uses one.
func TestReadBlocksAtReadsWholeBlocksInPlace(t *testing.T) {
	const B = BlockSize
	s := &landingStore{blockStore: newBlockStore(), landed: map[int64]*byte{}}
	s.length = 10 * B
	p := make([]byte, 2*B+10)
	if n, err := (Blocks{s}).ReadAt(p, 0); n != len(p) || err != nil {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if s.landed[0] != &p[0] || s.landed[1] != &p[B] || s.landed[2] == &p[2*B] {
		t.Fatal("whole blocks 0 and 1 must land in the caller's buffer, the partial block 2 in a scratch block")
	}
}

// TestEachBlockWindows checks the block loop of a page-in: each block of
// the page-aligned range is read, by its own number, straight into its
// BlockSize window of the pages returned.
func TestEachBlockWindows(t *testing.T) {
	const B = BlockSize
	s := &landingStore{blockStore: newBlockStore(), landed: map[int64]*byte{}}
	s.length = 10 * B
	pages, err := (Blocks{s}).MoveIn(3*B, 2*B)
	if err != nil || len(pages) != 2*B || len(s.landed) != 2 {
		t.Fatalf("MoveIn read blocks %v: %d bytes, err %v", s.landed, len(pages), err)
	}
	if s.landed[3] != &pages[0] || s.landed[4] != &pages[B] {
		t.Error("page-in blocks 3 and 4 were not read into their windows of the pages")
	}
}

// TestBlockHelperErrorsStopTheLoop checks the partial counts on failure.
func TestBlockHelperErrorsStopTheLoop(t *testing.T) {
	const B = BlockSize
	boom := errors.New("boom")
	s := newBlockStore()
	s.length = 3 * B
	failAt := func(bad int64, write bool) func(int64, bool) error {
		return func(bn int64, w bool) error {
			if bn == bad && w == write {
				return boom
			}
			return nil
		}
	}
	s.fail = failAt(1, false)
	if n, err := s.ReadAt(make([]byte, 3*B), 0); n != B || err != boom {
		t.Fatalf("ReadAt = %d, %v; want %d, boom", n, err, B)
	}
	s.fail = failAt(2, true)
	if n, err := s.WriteAt(make([]byte, 3*B), 0); n != 2*B || err != boom {
		t.Fatalf("WriteAt = %d, %v; want %d, boom", n, err, 2*B)
	}
	s.fail = failAt(0, false)
	if n, err := s.WriteAt(make([]byte, 10), 5); n != 0 || err != boom {
		t.Fatalf("WriteAt with failing read-modify-write = %d, %v", n, err)
	}
	s.fail = failAt(2, false)
	if _, err := s.MoveIn(B, 3*B); err != boom {
		t.Fatalf("MoveIn = %v, want boom", err)
	}
}

// TestBlockHelpersRefuseNegativeOffsets: an offset below zero is an error
// before any block is touched, not an index.
func TestBlockHelpersRefuseNegativeOffsets(t *testing.T) {
	s := newBlockStore()
	s.length = 5000
	s.fail = func(bn int64, _ bool) error {
		t.Errorf("block %d touched", bn)
		return nil
	}
	for _, off := range []int64{-1, -BlockSize, math.MinInt64} {
		if n, err := s.ReadAt(make([]byte, 16), off); n != 0 || !errors.Is(err, ErrNegativeOffset) {
			t.Errorf("ReadAt at %d = %d, %v", off, n, err)
		}
		if n, err := s.WriteAt(make([]byte, 16), off); n != 0 || !errors.Is(err, ErrNegativeOffset) {
			t.Errorf("WriteAt at %d = %d, %v", off, n, err)
		}
	}
	// A write whose end would pass the largest offset is refused whole.
	for _, off := range []int64{math.MaxInt64 - 5, math.MaxInt64} {
		if n, err := s.WriteAt(make([]byte, 16), off); n != 0 || !errors.Is(err, ErrFileTooBig) {
			t.Errorf("WriteAt at %d = %d, %v", off, n, err)
		}
	}
	if s.length != 5000 {
		t.Errorf("refused writes moved the length to %d", s.length)
	}
}

// TestPageOutStopsAtTheEnd: a page-out past the end of file is cut there
// and leaves the length as it was; one wholly past it stores nothing.
func TestPageOutStopsAtTheEnd(t *testing.T) {
	const B = BlockSize
	s := newBlockStore()
	if _, err := s.WriteAt(pattern(5000, 1), 0); err != nil {
		t.Fatal(err)
	}
	h := bindHolder(t, s)
	out := pattern(3*B, 9)
	if err := h.pager.PageOut(0, 3*B, out); err != nil {
		t.Fatal(err)
	}
	if err := h.pager.PageOut(4*B, B, out); err != nil {
		t.Fatal(err)
	}
	if s.length != 5000 || len(s.blocks) != 2 {
		t.Fatalf("after page-outs past the end: length %d, %d blocks; want 5000, 2", s.length, len(s.blocks))
	}
	want := append(out[:5000:5000], make([]byte, 2*B-5000)...)
	if got := append(s.blocks[0], s.blocks[1]...); !bytes.Equal(got, want) {
		t.Fatal("the store holds bytes at or past the end")
	}
	// The block path's own mover cuts at the view's length too, for a cut
	// the layer makes without its pager.
	if err := s.Blocks.MoveOut(B, out[:2*B]); err != nil {
		t.Fatal(err)
	}
	if got := s.blocks[1][5000-B:]; s.length != 5000 || len(s.blocks) != 2 || !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("MoveOut past the end stored bytes there")
	}
}

// byteStore is a layer whose mover is its WriteAt, as mirrorfs's and
// stripefs's are: a page-out the pager did not cut would grow the file.
type byteStore struct{ *blockStore }

func (s byteStore) MoveOut(offset vm.Offset, data []byte) error {
	_, err := s.WriteAt(data, offset)
	return err
}

// TestPageOutRacingShrink: a truncation that starts while a page-out is
// between reading the length and storing its pages waits for the
// page-out, then cuts what it stored; the page-out cannot grow the file
// again or leave bytes past the cut.
func TestPageOutRacingShrink(t *testing.T) {
	const B = BlockSize
	s := byteStore{newBlockStore()}
	s.FilePager = NewConnectionTable(nil).NewPager(s, false)
	if _, err := s.WriteAt(bytes.Repeat([]byte{'a'}, 3*B), 0); err != nil {
		t.Fatal(err)
	}
	h := bindHolder(t, s)
	shrunk := make(chan error, 1)
	s.onLength = func() {
		s.onLength = nil
		go func() { shrunk <- s.SetLength(B + 100) }()
		// Give the truncation the time to land, if nothing holds it back.
		select {
		case err := <-shrunk:
			shrunk <- err
		case <-time.After(50 * time.Millisecond):
		}
	}
	if err := h.pager.PageOut(0, 3*B, bytes.Repeat([]byte{'X'}, 3*B)); err != nil {
		t.Fatal(err)
	}
	if err := <-shrunk; err != nil {
		t.Fatal(err)
	}
	if err := s.SetLength(3 * B); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3*B)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{'X'}, B+100), make([]byte, 2*B-100)...)
	if !bytes.Equal(got, want) {
		t.Fatal("after the racing shrink and a regrow the file is not the page-out's X up to the cut, then zeros")
	}
}

// TestShrinkFlushesHolders: a shrink whose holder has a dirty page
// straddling the new end stores that page's bytes below the end, zeros
// after it, and the holder drops its pages from that page on — all before
// the layer cuts its store.
func TestShrinkFlushesHolders(t *testing.T) {
	const B = BlockSize
	s := newBlockStore()
	if _, err := s.WriteAt(bytes.Repeat([]byte{'a'}, 3*B), 0); err != nil {
		t.Fatal(err)
	}
	h := bindHolder(t, s)
	h.dirty[B] = bytes.Repeat([]byte{'X'}, B)
	if err := s.SetLength(B + 100); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(h.calls, []string{"flush", "delete"}) {
		t.Fatalf("holder saw %v; want flush, delete", h.calls)
	}
	if err := s.SetLength(3 * B); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3*B)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{'a'}, B), bytes.Repeat([]byte{'X'}, 100)...)
	want = append(want, make([]byte, 2*B-100)...)
	if !bytes.Equal(got, want) {
		t.Fatal("after shrink and regrow the file is not a, the flushed X below the end, then zeros")
	}
}

// TestShrinkWithoutHolderMakesNoCall: with no holder bound the shrink rule
// asks nothing — not even the length — and the layer's own cut is all a
// shrink does.
func TestShrinkWithoutHolderMakesNoCall(t *testing.T) {
	s := newBlockStore()
	if _, err := s.WriteAt(pattern(3*BlockSize, 2), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLength(100); err != nil {
		t.Fatal(err)
	}
	if s.lengths != 0 || s.moves != 0 {
		t.Fatalf("shrink with no holder: %d GetLength and %d mover calls, want none", s.lengths, s.moves)
	}
	if s.length != 100 || len(s.blocks) != 1 {
		t.Fatalf("the layer's cut left length %d, %d blocks", s.length, len(s.blocks))
	}
}

// tailFile records what the pager asks of its file.
type tailFile struct {
	File
	length  vm.Offset
	syncs   int
	outs    int
	lastLen int
}

func (f *tailFile) Stat() (Attributes, error)     { return Attributes{Length: f.length}, nil }
func (f *tailFile) GetLength() (vm.Offset, error) { return f.length, nil }
func (f *tailFile) Resize(l vm.Offset) error      { f.length = l; return nil }
func (f *tailFile) Sync() error                   { f.syncs++; return nil }
func (f *tailFile) MoveIn(_, size vm.Offset) ([]byte, error) {
	return make([]byte, size), nil
}
func (f *tailFile) MoveOut(_ vm.Offset, data []byte) error {
	f.outs++
	f.lastLen = len(data)
	return nil
}

// TestFilePagerTail checks the derived half of the fs_pager interface, and
// that a page-out reaches the layer cut at the end of file.
func TestFilePagerTail(t *testing.T) {
	const B = BlockSize
	f := &tailFile{length: 10}
	fp := NewConnectionTable(nil).NewPager(f, false)
	p := (*pagerObject)(&fp)
	if _, err := p.PageIn(1, B, vm.RightsRead); err != vm.ErrUnaligned {
		t.Errorf("unaligned PageIn = %v", err)
	}
	if err := p.PageOut(0, B+1, make([]byte, 2*B)); err != vm.ErrUnaligned {
		t.Errorf("unaligned PageOut = %v", err)
	}
	if err := p.PageOut(0, 2*B, make([]byte, B)); err == nil {
		t.Error("PageOut with short data succeeded")
	}
	if f.outs != 0 {
		t.Fatalf("rejected page-outs reached the layer %d times", f.outs)
	}
	data := make([]byte, 2*B)
	for _, op := range []func(vm.Offset, vm.Offset, []byte) error{p.PageOut, p.WriteOut, p.Sync} {
		if err := op(0, B, data); err != nil {
			t.Fatal(err)
		}
		if f.lastLen != 10 {
			t.Fatalf("layer saw %d bytes for a one-page page-out of a 10-byte file", f.lastLen)
		}
	}
	if f.outs != 3 || f.syncs != 0 {
		t.Fatalf("outs %d syncs %d; want 3, 0 (syncAfterOut off)", f.outs, f.syncs)
	}
	p.syncAfterOut = true
	if err := p.Sync(0, B, data); err != nil || f.syncs != 1 {
		t.Fatalf("Sync with syncAfterOut: err %v, syncs %d", err, f.syncs)
	}
	if err := p.WriteOut(0, B, data); err != nil || f.syncs != 1 {
		t.Fatalf("WriteOut must not sync the file: err %v, syncs %d", err, f.syncs)
	}
	if attrs, err := p.GetAttributes(); err != nil || attrs.Length != 10 {
		t.Fatalf("GetAttributes = %+v, %v", attrs, err)
	}
	if err := p.SetAttributes(Attributes{Length: 99}); err != nil || f.length != 99 {
		t.Fatalf("SetAttributes: err %v, length %d", err, f.length)
	}
	p.DoneWithPagerObject()
}
