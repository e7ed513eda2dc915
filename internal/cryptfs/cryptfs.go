// Package cryptfs implements an encrypting file system layer — encryption
// is one of the motivating examples of new file system functionality in
// the paper's introduction ("Examples of new functionality that may need
// to be added include compression, replication, encryption, ...").
//
// The layer encrypts each 4 KiB block independently with AES-CTR, using a
// per-block IV derived from the block number, so the transformation is
// length-preserving: the underlying file has exactly the uncompressed
// length and offsets map one-to-one. That makes the layer a minimal
// worked example of a transforming stackable layer, in contrast to COMPFS
// whose transformation changes sizes and needs its own on-disk layout.
//
// Like COMPFS, the exported data differs from the underlying data, so no
// cache sharing with the layer below is possible; the layer is the pager
// for its files. Writes are write-through. For a fully coherent stack,
// stack a coherency layer on top (Section 6.3).
package cryptfs

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// BlockSize is the encryption granularity (one VM page).
const BlockSize = vm.PageSize

// CryptFS is an instance of the encrypting layer: the pass-through name
// space of fsys.Passthrough with every file wrapped in a cryptFile.
type CryptFS struct {
	fsys.Passthrough
	block cipher.Block
	table *fsys.ConnectionTable
}

var (
	_ fsys.StackableFS      = (*CryptFS)(nil)
	_ naming.ProxyWrappable = (*CryptFS)(nil)
)

// New creates an encrypting layer; the AES key is derived from passphrase.
func New(domain *spring.Domain, name, passphrase string) (*CryptFS, error) {
	key := sha256.Sum256([]byte(passphrase))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	c := &CryptFS{block: block, table: fsys.NewConnectionTable(domain)}
	c.Init(name, c, func(lower fsys.File) fsys.File {
		f := &cryptFile{lower: lower, block: block}
		f.FilePager, f.Blocks = c.table.NewPager(f, false), fsys.Blocks{Viewer: f}
		return f
	})
	return c, nil
}

// NewCreator returns a stackable_fs_creator; config key "passphrase" sets
// the key material.
func NewCreator(domain *spring.Domain) fsys.Creator {
	var n atomic.Uint64
	return fsys.CreatorFunc(func(config map[string]string) (fsys.StackableFS, error) {
		name := config["name"]
		if name == "" {
			name = fmt.Sprintf("cryptfs%d", n.Add(1))
		}
		pass := config["passphrase"]
		if pass == "" {
			return nil, fmt.Errorf("cryptfs: config key %q is required", "passphrase")
		}
		return New(domain, name, pass)
	})
}

// cryptFile is one encrypted file. It is its own block view: the kit's
// block path serves its data, and its pager is the kit's.
type cryptFile struct {
	fsys.FilePager
	fsys.Blocks
	lower fsys.File
	block cipher.Block

	mu   sync.Mutex // held by a view
	size int64      // the length, while a view is open
}

var (
	_ fsys.PagedFile        = (*cryptFile)(nil)
	_ fsys.BlockView        = (*cryptFile)(nil)
	_ naming.ProxyWrappable = (*cryptFile)(nil)
)

// Lower returns the underlying (ciphertext) file.
func (f *cryptFile) Lower() fsys.File { return f.lower }

// xorBlock encrypts or decrypts (CTR is symmetric) one block in place; the
// IV is derived from the block number so random access works.
func (f *cryptFile) xorBlock(bn int64, data []byte) {
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:], uint64(bn)+1)
	cipher.NewCTR(f.block, iv[:]).XORKeyStream(data, data)
}

// View implements fsys.BlockViewer: the file itself, locked, with the
// length read below (the transformation is length-preserving).
func (f *cryptFile) View(bool) (fsys.BlockView, error) {
	f.mu.Lock()
	size, err := f.lower.GetLength()
	if err != nil {
		f.mu.Unlock()
		return nil, err
	}
	f.size = size
	return f, nil
}

// Length implements fsys.BlockView.
func (f *cryptFile) Length() int64 { return f.size }

// Done implements fsys.BlockView.
func (f *cryptFile) Done() { f.mu.Unlock() }

// ReadBlock implements fsys.BlockView: the plaintext of block bn. Only the
// bytes the lower layer actually holds are decrypted: a hole (sparse write,
// truncate-up) reads back as zeros below, and zeros are not ciphertext —
// an all-zero lower block denotes a hole and decodes to plaintext zeros,
// eCryptfs style. (A real block whose CTR ciphertext is entirely zero is
// the only ambiguity, with probability 2^-32768.)
func (f *cryptFile) ReadBlock(bn int64, dst []byte) error {
	n, err := f.lower.ReadAt(dst, bn*BlockSize)
	if err != nil && err != io.EOF {
		return err
	}
	clear(dst[n:])
	if len(bytes.TrimLeft(dst[:n], "\x00")) > 0 {
		f.xorBlock(bn, dst[:n])
	}
	return nil
}

// WriteBlock implements fsys.BlockView: encrypt block bn in place and
// store it, but not the part past the length (of a block wholly past it,
// nothing). This is the length restore
// of a block-padded write, done by never padding: the lower file keeps
// exactly the logical length, whether a WriteAt or a page-out wrote it.
func (f *cryptFile) WriteBlock(bn int64, src []byte) error {
	n := min(BlockSize, f.size-bn*BlockSize)
	if n <= 0 {
		return nil
	}
	f.xorBlock(bn, src)
	_, err := f.lower.WriteAt(src[:n], bn*BlockSize)
	return err
}

// Grow implements fsys.BlockView, sealing the tail when the write starts
// strictly past the end: the block straddling the old end is re-encrypted
// so its tail holds ciphertext of zeros. The lower layer zero-fills bytes
// past its end of file (holes, and a truncate's dropped tail) — correct
// for the ciphertext volume, but those zeros are fill, not ciphertext, and
// decrypting them yields garbage. So anything about to expose bytes past
// the length (a truncate up, a write strictly past it) seals the tail
// first, keeping every lower byte inside the length real ciphertext. A
// write at or before the end rewrites the straddling block itself. The
// length is already end when the seal is stored, so it is stored up to it.
func (f *cryptFile) Grow(off, end int64) error {
	old := f.size
	f.size = end
	if off > old {
		return fsys.ZeroTail(f, old)
	}
	return nil
}

// GetLength implements vm.MemoryObject.
func (f *cryptFile) GetLength() (vm.Offset, error) { return f.lower.GetLength() }

// Resize implements fsys.PagedFile. An extension seals the tail first
// (see Grow), so the newly exposed bytes read as zeros.
func (f *cryptFile) Resize(l vm.Offset) error {
	if _, err := f.View(true); err != nil {
		return err
	}
	defer f.Done()
	if l > f.size {
		if err := f.Grow(l, l); err != nil {
			return err
		}
	}
	return f.lower.SetLength(l)
}

// Stat implements fsys.File.
func (f *cryptFile) Stat() (fsys.Attributes, error) { return f.lower.Stat() }

// Sync implements fsys.File.
func (f *cryptFile) Sync() error { return f.lower.Sync() }

// Retain implements fsys.HandleFile, forwarding toward the storage owner.
func (f *cryptFile) Retain() { fsys.Retain(f.lower) }

// Release implements fsys.HandleFile.
func (f *cryptFile) Release() error { return fsys.Release(f.lower) }
