package fsys

import (
	"fmt"
	"io"

	"springfs/internal/vm"
)

// BlockSize is the granularity of the block helpers: one VM page, so a
// transforming layer's blocks line up with the pages it serves as a pager.
const BlockSize = vm.PageSize

// BlockFunc moves one whole block: a reader fills all BlockSize bytes of
// buf with block bn (zeros where the file has a hole), a writer stores buf
// as block bn. Neither may retain buf.
type BlockFunc func(bn int64, buf []byte) error

// ReadBlocksAt serves a byte-range read of a file of the given length
// from a block reader, with io.ReaderAt end-of-file semantics. Whole
// aligned blocks are read straight into p; only an unaligned head or tail
// goes through a scratch block.
func ReadBlocksAt(p []byte, off, length int64, readBlock BlockFunc) (int, error) {
	if off < 0 {
		return 0, ErrNegativeOffset
	}
	if off >= length {
		return 0, io.EOF
	}
	n, eof := len(p), false
	if off+int64(n) > length {
		n, eof = int(length-off), true
	}
	var scratch []byte
	done := 0
	for done < n {
		bn, bo := (off+int64(done))/BlockSize, (off+int64(done))%BlockSize
		if bo == 0 && n-done >= BlockSize {
			if err := readBlock(bn, p[done:done+BlockSize]); err != nil {
				return done, err
			}
			done += BlockSize
			continue
		}
		if scratch == nil {
			scratch = make([]byte, BlockSize)
		}
		if err := readBlock(bn, scratch); err != nil {
			return done, err
		}
		done += copy(p[done:n], scratch[bo:])
	}
	if eof {
		return done, io.EOF
	}
	return done, nil
}

// WriteBlocksAt serves a byte-range write: whole aligned blocks go
// straight from p to writeBlock, a partially covered block is read,
// modified and written back. It returns how many bytes landed; the caller
// owns the file length (see DESIGN.md §5, "Writing a layer").
func WriteBlocksAt(p []byte, off int64, readBlock, writeBlock BlockFunc) (int, error) {
	if off < 0 {
		return 0, ErrNegativeOffset
	}
	var scratch []byte
	done := 0
	for done < len(p) {
		bn, bo := (off+int64(done))/BlockSize, (off+int64(done))%BlockSize
		chunk := min(BlockSize-int(bo), len(p)-done)
		src := p[done : done+chunk]
		if chunk < BlockSize {
			if scratch == nil {
				scratch = make([]byte, BlockSize)
			}
			if err := readBlock(bn, scratch); err != nil {
				return done, err
			}
			copy(scratch[bo:], src)
			src = scratch
		}
		if err := writeBlock(bn, src); err != nil {
			return done, err
		}
		done += chunk
	}
	return done, nil
}

// ZeroTail zeroes the part of the block straddling length that lies past
// it, so bytes a shrink cut off (or fill a lower layer put there) cannot
// reappear when the file grows again. A block-aligned length has no such
// block and costs no I/O.
func ZeroTail(readBlock, writeBlock BlockFunc, length int64) error {
	bo := length % BlockSize
	if bo == 0 {
		return nil
	}
	_, err := WriteBlocksAt(make([]byte, BlockSize-bo), length, readBlock, writeBlock)
	return err
}

// EachBlock runs fn over the blocks of the page-aligned range [offset,
// offset+size) with the matching BlockSize window of buf: the loop of a
// block-granular PageIn (fn reads into buf) or PageOut (fn writes from it).
func EachBlock(offset, size vm.Offset, buf []byte, fn BlockFunc) error {
	for bn := offset / BlockSize; bn*BlockSize < offset+size; bn++ {
		if err := fn(bn, buf[bn*BlockSize-offset:(bn+1)*BlockSize-offset]); err != nil {
			return err
		}
	}
	return nil
}

// FilePager is the fs_pager a layer that is the pager for its own files
// hands out from Bind. The layer supplies the two data movers; the
// adapter checks the range once and derives the rest of the interface.
type FilePager struct {
	// File supplies Stat, SetLength and Sync.
	File File
	// In returns the pages of a page-aligned range; Out stores them.
	In  func(offset, size vm.Offset, access vm.Rights) ([]byte, error)
	Out func(offset, size vm.Offset, data []byte) error
	// SyncAfterOut makes the pager's Sync also sync File, for layers whose
	// page-out leaves metadata (a block table) to be made durable.
	SyncAfterOut bool
}

var _ FsPagerObject = (*FilePager)(nil)

// PageIn implements vm.PagerObject.
func (p *FilePager) PageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	if !vm.PageAligned(offset, size) {
		return nil, vm.ErrUnaligned
	}
	if access.NoData() {
		// A write grant without the data: the adapter keeps no per-holder
		// state, so the blocks about to be replaced whole are neither read
		// below nor decoded.
		return nil, nil
	}
	return p.In(offset, size, access)
}

// PageOut implements vm.PagerObject.
func (p *FilePager) PageOut(offset, size vm.Offset, data []byte) error {
	if !vm.PageAligned(offset, size) {
		return vm.ErrUnaligned
	}
	if int64(len(data)) < size {
		return fmt.Errorf("fsys: page-out of %d bytes carries only %d", size, len(data))
	}
	return p.Out(offset, size, data[:size])
}

// WriteOut implements vm.PagerObject. The layer keeps no per-holder state,
// so what the caller retains makes no difference to it.
func (p *FilePager) WriteOut(offset, size vm.Offset, data []byte) error {
	return p.PageOut(offset, size, data)
}

// Sync implements vm.PagerObject.
func (p *FilePager) Sync(offset, size vm.Offset, data []byte) error {
	if err := p.PageOut(offset, size, data); err != nil || !p.SyncAfterOut {
		return err
	}
	return p.File.Sync()
}

// DoneWithPagerObject implements vm.PagerObject.
func (p *FilePager) DoneWithPagerObject() {}

// GetAttributes implements FsPagerObject.
func (p *FilePager) GetAttributes() (Attributes, error) { return p.File.Stat() }

// SetAttributes implements FsPagerObject. Times are the lower file's; only
// the length is the layer's to set.
func (p *FilePager) SetAttributes(attrs Attributes) error {
	return p.File.SetLength(attrs.Length)
}
