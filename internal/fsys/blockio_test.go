package fsys

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"springfs/internal/vm"
)

// blockStore is a sparse map of blocks: the store side of the helpers
// under test. An absent block is a hole.
type blockStore struct {
	blocks map[int64][]byte
}

func (s *blockStore) read(bn int64, dst []byte) error {
	if len(dst) != BlockSize {
		return errors.New("short block buffer")
	}
	clear(dst)
	copy(dst, s.blocks[bn])
	return nil
}

func (s *blockStore) write(bn int64, src []byte) error {
	if len(src) != BlockSize {
		return errors.New("short block buffer")
	}
	s.blocks[bn] = append([]byte(nil), src...)
	return nil
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

func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i%251)
	}
	return p
}

// TestBlockHelpersAgainstModel drives WriteBlocksAt/ReadBlocksAt and the
// flat model with the same operations and compares every result.
func TestBlockHelpersAgainstModel(t *testing.T) {
	const B = BlockSize
	store := &blockStore{blocks: map[int64][]byte{}}
	ref := &model{}
	var length int64

	writes := []struct {
		name string
		off  int64
		n    int
	}{
		{"exact-block", 0, B},
		{"unaligned-head", B - 100, 300},
		{"unaligned-tail", 2 * B, B + 17},
		{"inside-one-block", 5, 10},
		{"spans-three-blocks", B / 2, 2 * B},
		{"extends-length-sparse", 6*B + 3, 50},
		{"empty", 3, 0},
	}
	for i, w := range writes {
		p := pattern(w.n, byte(i*37))
		done, err := WriteBlocksAt(p, w.off, store.read, store.write)
		if err != nil || done != w.n {
			t.Fatalf("%s: WriteBlocksAt = %d, %v; want %d, nil", w.name, done, err, w.n)
		}
		ref.writeAt(p, w.off)
		if end := w.off + int64(done); end > length {
			length = end // write-extends-length: the caller owns the length
		}
		if length != int64(len(ref.data)) {
			t.Fatalf("%s: length %d, model %d", w.name, length, len(ref.data))
		}
	}

	reads := []struct {
		name string
		off  int64
		n    int
	}{
		{"exact-block", B, B},
		{"whole-file", 0, int(length)},
		{"unaligned-head", 100, B},
		{"unaligned-tail", 2 * B, B + 17},
		{"hole", 4 * B, B},
		{"past-eof-partial", length - 20, 100},
		{"at-eof", length, 10},
		{"beyond-eof", length + B, 10},
		{"empty", 7, 0},
	}
	for _, r := range reads {
		got, want := make([]byte, r.n), make([]byte, r.n)
		n, err := ReadBlocksAt(got, r.off, length, store.read)
		wn, werr := ref.readAt(want, r.off)
		if r.n == 0 && r.off < length {
			wn, werr = 0, nil
		}
		if n != wn || err != werr {
			t.Fatalf("%s: ReadBlocksAt = %d, %v; model %d, %v", r.name, n, err, wn, werr)
		}
		if !bytes.Equal(got[:n], want[:wn]) {
			t.Fatalf("%s: bytes differ from model", r.name)
		}
	}
	if n, err := ReadBlocksAt(make([]byte, 100), length-20, length, store.read); n != 20 || err != io.EOF {
		t.Fatalf("read past EOF = %d, %v; want 20, io.EOF", n, err)
	}
}

// TestZeroTailAgainstModel shrinks the store and the flat model to the same
// lengths — zero-tailing the one, truncating the other — and regrows both:
// the store must read back as the model does, zeros past every cut.
func TestZeroTailAgainstModel(t *testing.T) {
	const B = BlockSize
	store := &blockStore{blocks: map[int64][]byte{}}
	ref := &model{}
	p := pattern(3*B, 11)
	if _, err := WriteBlocksAt(p, 0, store.read, store.write); err != nil {
		t.Fatal(err)
	}
	ref.writeAt(p, 0)
	ios := 0
	read := func(bn int64, b []byte) error { ios++; return store.read(bn, b) }
	write := func(bn int64, b []byte) error { ios++; return store.write(bn, b) }

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
		if err := ZeroTail(read, write, c.length); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ios != c.ios {
			t.Errorf("%s: %d block I/Os, want %d", c.name, ios, c.ios)
		}
		// The caller owns the length and the whole blocks past it: the
		// model truncates, the store drops them, then both regrow.
		if int(c.length) < len(ref.data) {
			ref.data = ref.data[:c.length]
		}
		for bn := range store.blocks {
			if bn*B >= c.length {
				delete(store.blocks, bn)
			}
		}
		ref.writeAt(nil, 6*B) // regrow: zero-extends the model
		got, want := make([]byte, 6*B), make([]byte, 6*B)
		if _, err := ReadBlocksAt(got, 0, 6*B, store.read); err != nil {
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

// TestReadBlocksAtReadsWholeBlocksInPlace checks the fast path every layer
// now shares: an aligned whole block lands in the caller's buffer without a
// scratch copy, and only an unaligned head or tail uses one.
func TestReadBlocksAtReadsWholeBlocksInPlace(t *testing.T) {
	const B = BlockSize
	p := make([]byte, 2*B+10)
	inPlace := map[int64]bool{}
	read := func(bn int64, dst []byte) error {
		inPlace[bn] = &dst[0] == &p[bn*B]
		clear(dst)
		return nil
	}
	if n, err := ReadBlocksAt(p, 0, 10*B, read); n != len(p) || err != nil {
		t.Fatalf("ReadBlocksAt = %d, %v", n, err)
	}
	if !inPlace[0] || !inPlace[1] || inPlace[2] {
		t.Fatalf("in-place reads by block: %v; want blocks 0 and 1 only", inPlace)
	}
}

// TestBlockHelperErrorsStopTheLoop checks the partial counts on failure.
func TestBlockHelperErrorsStopTheLoop(t *testing.T) {
	const B = BlockSize
	boom := errors.New("boom")
	failAt := func(bad int64) BlockFunc {
		return func(bn int64, buf []byte) error {
			if bn == bad {
				return boom
			}
			return nil
		}
	}
	if n, err := ReadBlocksAt(make([]byte, 3*B), 0, 3*B, failAt(1)); n != B || err != boom {
		t.Fatalf("ReadBlocksAt = %d, %v; want %d, boom", n, err, B)
	}
	ok := failAt(-1)
	if n, err := WriteBlocksAt(make([]byte, 3*B), 0, ok, failAt(2)); n != 2*B || err != boom {
		t.Fatalf("WriteBlocksAt = %d, %v; want %d, boom", n, err, 2*B)
	}
	if n, err := WriteBlocksAt(make([]byte, 10), 5, failAt(0), ok); n != 0 || err != boom {
		t.Fatalf("WriteBlocksAt with failing read-modify-write = %d, %v", n, err)
	}
	if err := EachBlock(B, 3*B, make([]byte, 3*B), failAt(2)); err != boom {
		t.Fatalf("EachBlock = %v, want boom", err)
	}
}

// TestBlockHelpersRefuseNegativeOffsets: an offset below zero is an error
// before any block is touched, not an index.
func TestBlockHelpersRefuseNegativeOffsets(t *testing.T) {
	touched := func(bn int64, buf []byte) error {
		t.Errorf("block %d touched", bn)
		return nil
	}
	for _, off := range []int64{-1, -BlockSize, math.MinInt64} {
		if n, err := ReadBlocksAt(make([]byte, 16), off, 5000, touched); n != 0 || !errors.Is(err, ErrNegativeOffset) {
			t.Errorf("ReadBlocksAt at %d = %d, %v", off, n, err)
		}
		if n, err := WriteBlocksAt(make([]byte, 16), off, touched, touched); n != 0 || !errors.Is(err, ErrNegativeOffset) {
			t.Errorf("WriteBlocksAt at %d = %d, %v", off, n, err)
		}
	}
}

// TestEachBlockWindows checks block numbers and buffer windows.
func TestEachBlockWindows(t *testing.T) {
	const B = BlockSize
	buf := make([]byte, 2*B)
	var seen []int64
	err := EachBlock(3*B, 2*B, buf, func(bn int64, blk []byte) error {
		seen = append(seen, bn)
		if len(blk) != B || &blk[0] != &buf[(bn-3)*B] {
			t.Errorf("block %d: wrong window", bn)
		}
		return nil
	})
	if err != nil || len(seen) != 2 || seen[0] != 3 || seen[1] != 4 {
		t.Fatalf("EachBlock visited %v, err %v", seen, err)
	}
}

// tailFile records what the pager adapter asks of its file.
type tailFile struct {
	File
	length vm.Offset
	syncs  int
}

func (f *tailFile) Stat() (Attributes, error)   { return Attributes{Length: f.length}, nil }
func (f *tailFile) SetLength(l vm.Offset) error { f.length = l; return nil }
func (f *tailFile) Sync() error                 { f.syncs++; return nil }

// TestFilePagerTail checks the derived half of the fs_pager interface.
func TestFilePagerTail(t *testing.T) {
	const B = BlockSize
	f := &tailFile{length: 10}
	var outs int
	var lastLen int
	p := &FilePager{
		File: f,
		In: func(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
			return make([]byte, size), nil
		},
		Out: func(offset, size vm.Offset, data []byte) error {
			outs++
			lastLen = len(data)
			return nil
		},
	}
	if _, err := p.PageIn(1, B, vm.RightsRead); err != vm.ErrUnaligned {
		t.Errorf("unaligned PageIn = %v", err)
	}
	if err := p.PageOut(0, B+1, make([]byte, 2*B)); err != vm.ErrUnaligned {
		t.Errorf("unaligned PageOut = %v", err)
	}
	if err := p.PageOut(0, 2*B, make([]byte, B)); err == nil {
		t.Error("PageOut with short data succeeded")
	}
	if outs != 0 {
		t.Fatalf("rejected page-outs reached the layer %d times", outs)
	}
	data := make([]byte, 2*B)
	for _, op := range []func(vm.Offset, vm.Offset, []byte) error{p.PageOut, p.WriteOut, p.Sync} {
		if err := op(0, B, data); err != nil {
			t.Fatal(err)
		}
		if lastLen != B {
			t.Fatalf("layer saw %d bytes for a one-page page-out", lastLen)
		}
	}
	if outs != 3 || f.syncs != 0 {
		t.Fatalf("outs %d syncs %d; want 3, 0 (SyncAfterOut off)", outs, f.syncs)
	}
	p.SyncAfterOut = true
	if err := p.Sync(0, B, data); err != nil || f.syncs != 1 {
		t.Fatalf("Sync with SyncAfterOut: err %v, syncs %d", err, f.syncs)
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
