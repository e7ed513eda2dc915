package fsys

import (
	"io"
	"math"
	"sync"

	"springfs/internal/vm"
)

// BlockSize is the granularity of the block path: one VM page, so a
// layer's blocks line up with the pages it serves as a pager.
const BlockSize = vm.PageSize

// BlockView is one operation's view of a file its layer stores as blocks
// of BlockSize. From the View that returns it until Done it holds the
// layer's lock, with the layer's block table or epoch chain loaded.
type BlockView interface {
	// Length is the file's length.
	Length() int64
	// ReadBlock fills dst, BlockSize bytes, with block bn: zeros where the
	// file has a hole. It must not retain dst.
	ReadBlock(bn int64, dst []byte) error
	// WriteBlock stores src, BlockSize bytes, as block bn. src is the
	// operation's scratch block: the writer may change it, and must not
	// retain it.
	WriteBlock(bn int64, src []byte) error
	// Grow makes end the length, before the blocks of a write of [off,
	// end) that ends past Length land.
	Grow(off, end int64) error
	// Done releases the view.
	Done()
}

// BlockViewer is the file of a layer whose data path is Blocks: it opens
// one view per operation, a write view for WriteAt, Append and MoveOut.
type BlockViewer interface {
	View(write bool) (BlockView, error)
}

// Blocks is the block path of a layer that stores its files as blocks
// (cryptfs, compfs, snapfs): the layer's file embeds one over itself and
// gets ReadAt, WriteAt and the pager's movers from it.
type Blocks struct{ Viewer BlockViewer }

// blockPool holds the scratch blocks of operations: one each for a
// partial-block read-modify-write and for the writer to scribble on.
var blockPool = sync.Pool{New: func() any { return new([BlockSize]byte) }}

// zeroBlock is read, never written: the source of ZeroTail.
var zeroBlock [BlockSize]byte

// ReadAt implements File with io.ReaderAt end-of-file semantics.
func (b Blocks) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrNegativeOffset
	}
	v, err := b.Viewer.View(false)
	if err != nil {
		return 0, err
	}
	defer v.Done()
	return readBlocks(v, p, off, v.Length())
}

// WriteAt implements File: whole aligned blocks go from p to the writer
// through one scratch block; a partially covered block is read, modified
// and written back.
func (b Blocks) WriteAt(p []byte, off int64) (int, error) {
	if err := CheckWrite(off, len(p)); err != nil || len(p) == 0 {
		return 0, err
	}
	v, err := b.Viewer.View(true)
	if err != nil {
		return 0, err
	}
	defer v.Done()
	return writeView(v, p, off)
}

// AppendBlocks implements Appender for a file served by Blocks: the end of
// file is read and written in one view, so appenders never interleave.
func AppendBlocks(viewer BlockViewer, p []byte) (int64, int, error) {
	v, err := viewer.View(true)
	if err != nil {
		return 0, 0, err
	}
	defer v.Done()
	off := v.Length()
	if err := CheckWrite(off, len(p)); err != nil || len(p) == 0 {
		return off, 0, err
	}
	n, err := writeView(v, p, off)
	return off, n, err
}

// MoveIn implements PagedFile: past the end of file the pages hold zeros.
func (b Blocks) MoveIn(offset, size vm.Offset) ([]byte, error) {
	out := make([]byte, size)
	if _, err := b.ReadAt(out, offset); err != nil && err != io.EOF {
		return nil, err
	}
	return out, nil
}

// MoveOut implements PagedFile: data is cut again at the view's length, so
// a cut the layer makes without its pager (snapfs's truncate on create)
// cannot be undone by a page-out either. The write never grows the file; a
// cut last page is a partial block.
func (b Blocks) MoveOut(offset vm.Offset, data []byte) error {
	v, err := b.Viewer.View(true)
	if err != nil {
		return err
	}
	defer v.Done()
	if n := v.Length() - offset; n < int64(len(data)) {
		data = data[:max(n, 0)]
	}
	_, err = writeBlocks(v, data, offset)
	return err
}

// ZeroTail zeroes the part of the block straddling length that lies past
// it, so bytes a shrink cut off (or fill a lower layer put there) cannot
// reappear when the file grows again. A block-aligned length has no such
// block and costs no I/O.
func ZeroTail(v BlockView, length int64) error {
	bo := length % BlockSize
	if bo == 0 {
		return nil
	}
	_, err := writeBlocks(v, zeroBlock[bo:], length)
	return err
}

// CheckWrite refuses, before any byte of it lands, a write of n bytes at
// off that starts below zero or whose end would pass the largest int64
// offset.
func CheckWrite(off int64, n int) error {
	switch {
	case off < 0:
		return ErrNegativeOffset
	case off > math.MaxInt64-int64(n):
		return ErrFileTooBig
	}
	return nil
}

// readBlocks serves a byte-range read of a file of the given length from
// v. Whole aligned blocks are read straight into p; only an unaligned head
// or tail goes through a scratch block.
func readBlocks(v BlockView, p []byte, off, length int64) (int, error) {
	if off >= length {
		return 0, io.EOF
	}
	n, eof := len(p), false
	if off+int64(n) > length {
		n, eof = int(length-off), true
	}
	var scratch *[BlockSize]byte
	done := 0
	for done < n {
		bn, bo := (off+int64(done))/BlockSize, (off+int64(done))%BlockSize
		if bo == 0 && n-done >= BlockSize {
			if err := v.ReadBlock(bn, p[done:done+BlockSize]); err != nil {
				return done, err
			}
			done += BlockSize
			continue
		}
		if scratch == nil {
			scratch = blockPool.Get().(*[BlockSize]byte)
			defer blockPool.Put(scratch)
		}
		if err := v.ReadBlock(bn, scratch[:]); err != nil {
			return done, err
		}
		done += copy(p[done:n], scratch[bo:])
	}
	if eof {
		return done, io.EOF
	}
	return done, nil
}

// writeView writes p at off, growing the file first when the write ends
// past its length.
func writeView(v BlockView, p []byte, off int64) (int, error) {
	if end := off + int64(len(p)); end > v.Length() {
		if err := v.Grow(off, end); err != nil {
			return 0, err
		}
	}
	return writeBlocks(v, p, off)
}

// writeBlocks stores p at off block by block through one scratch block
// and returns how many bytes landed; the caller owns the file length.
func writeBlocks(v BlockView, p []byte, off int64) (int, error) {
	scratch := blockPool.Get().(*[BlockSize]byte)
	defer blockPool.Put(scratch)
	done := 0
	for done < len(p) {
		bn, bo := (off+int64(done))/BlockSize, (off+int64(done))%BlockSize
		chunk := min(BlockSize-int(bo), len(p)-done)
		if chunk < BlockSize {
			if err := v.ReadBlock(bn, scratch[:]); err != nil {
				return done, err
			}
		}
		copy(scratch[bo:], p[done:done+chunk])
		if err := v.WriteBlock(bn, scratch[:]); err != nil {
			return done, err
		}
		done += chunk
	}
	return done, nil
}
