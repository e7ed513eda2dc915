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

	nextBacking atomic.Uint64
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
		return &cryptFile{fs: c, lower: lower, backing: c.nextBacking.Add(1)}
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

// xorBlock encrypts or decrypts (CTR is symmetric) one block in place; the
// IV is derived from the block number so random access works.
func (c *CryptFS) xorBlock(bn int64, data []byte) {
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:], uint64(bn)+1)
	stream := cipher.NewCTR(c.block, iv[:])
	stream.XORKeyStream(data, data)
}

// cryptFile is one encrypted file.
type cryptFile struct {
	fs      *CryptFS
	lower   fsys.File
	backing uint64
	mu      sync.Mutex // serialises read-modify-write cycles
}

var (
	_ fsys.File             = (*cryptFile)(nil)
	_ naming.ProxyWrappable = (*cryptFile)(nil)
)

// Lower returns the underlying (ciphertext) file.
func (f *cryptFile) Lower() fsys.File { return f.lower }

// WrapForChannel implements naming.ProxyWrappable.
func (f *cryptFile) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.NewFileProxy(ch, f)
}

// readBlock fills dst with the plaintext of block bn. Only the bytes the
// lower layer actually holds are decrypted: a hole (sparse write,
// truncate-up) reads back as zeros below, and zeros are not ciphertext —
// an all-zero lower block denotes a hole and decodes to plaintext zeros,
// eCryptfs style. (A real block whose CTR ciphertext is entirely zero is
// the only ambiguity, with probability 2^-32768.)
func (f *cryptFile) readBlock(bn int64, dst []byte) error {
	n, err := f.lower.ReadAt(dst, bn*BlockSize)
	if err != nil && err != io.EOF {
		return err
	}
	clear(dst[n:])
	if !allZero(dst[:n]) {
		f.fs.xorBlock(bn, dst[:n])
	}
	return nil
}

// allZero reports whether every byte of p is zero.
func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// writeBlock encrypts and writes block bn.
func (f *cryptFile) writeBlock(bn int64, plain []byte) error {
	ct := make([]byte, BlockSize)
	copy(ct, plain)
	f.fs.xorBlock(bn, ct)
	_, err := f.lower.WriteAt(ct, bn*BlockSize)
	return err
}

// sealTailLocked re-encrypts the block straddling the current end of file
// so its tail holds ciphertext of zeros. The lower layer zero-fills bytes
// past its end of file (holes, and a truncate's dropped tail) — correct
// for the ciphertext volume, but those zeros are fill, not ciphertext, and
// decrypting them yields garbage. Any operation about to expose bytes past
// the current length (a truncate up, a write strictly past EOF) seals the
// tail first, keeping the invariant that every lower byte inside the
// logical length is real ciphertext. Caller holds f.mu.
func (f *cryptFile) sealTailLocked(length vm.Offset) error {
	return fsys.ZeroTail(f.readBlock, f.writeBlock, length)
}

// ReadAt implements fsys.File.
func (f *cryptFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	length, err := f.lower.GetLength()
	if err != nil {
		return 0, err
	}
	return fsys.ReadBlocksAt(p, off, length, f.readBlock)
}

// WriteAt implements fsys.File (read-modify-write per block,
// write-through).
func (f *cryptFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	prevLen, err := f.lower.GetLength()
	if err != nil {
		return 0, err
	}
	if off > prevLen {
		// A sparse write strictly past EOF exposes the old tail without
		// rewriting its block; seal it. (A write at or before EOF rewrites
		// the straddling block itself.)
		if err := f.sealTailLocked(prevLen); err != nil {
			return 0, err
		}
	}
	done, err := fsys.WriteBlocksAt(p, off, f.readBlock, f.writeBlock)
	if err != nil {
		return done, err
	}
	// Block writes pad the underlying file to a block boundary; restore
	// the exact logical length (the transformation is length-preserving).
	return done, f.lower.SetLength(max(off+int64(done), prevLen))
}

// Stat implements fsys.File.
func (f *cryptFile) Stat() (fsys.Attributes, error) { return f.lower.Stat() }

// Sync implements fsys.File.
func (f *cryptFile) Sync() error { return f.lower.Sync() }

// Retain implements fsys.HandleFile, forwarding toward the storage owner.
func (f *cryptFile) Retain() { fsys.Retain(f.lower) }

// Release implements fsys.HandleFile.
func (f *cryptFile) Release() error { return fsys.Release(f.lower) }

// Bind implements vm.MemoryObject: the layer is the pager for its files,
// decrypting on page-in and encrypting on page-out.
func (f *cryptFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	rights, _, _ := f.fs.table.Bind(caller, f.backing, func() vm.PagerObject {
		return &fsys.FilePager{File: f, In: f.pageIn, Out: f.pageOut}
	})
	return rights, nil
}

// GetLength implements vm.MemoryObject.
func (f *cryptFile) GetLength() (vm.Offset, error) { return f.lower.GetLength() }

// SetLength implements vm.MemoryObject. An extension seals the straddling
// block's tail first (see sealTailLocked) so the newly exposed bytes read
// as zeros, not as a decryption of the lower layer's zero fill.
func (f *cryptFile) SetLength(l vm.Offset) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	old, err := f.lower.GetLength()
	if err != nil {
		return err
	}
	if l > old {
		if err := f.sealTailLocked(old); err != nil {
			return err
		}
	}
	return f.lower.SetLength(l)
}

// pageIn is the pager's page-in: decrypt block by block into the result.
func (f *cryptFile) pageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]byte, size)
	if err := fsys.EachBlock(offset, size, out, f.readBlock); err != nil {
		return nil, err
	}
	return out, nil
}

// pageOut is the pager's page-out. A page-out never changes the logical
// file length (length updates arrive through SetLength); the block padding
// it causes below is trimmed back.
func (f *cryptFile) pageOut(offset, size vm.Offset, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	prevLen, err := f.lower.GetLength()
	if err != nil {
		return err
	}
	if offset > prevLen {
		// A write-back strictly past EOF exposes the old tail without
		// rewriting its block; seal it (see sealTailLocked).
		if err := f.sealTailLocked(prevLen); err != nil {
			return err
		}
	}
	if err := fsys.EachBlock(offset, size, data, f.writeBlock); err != nil {
		return err
	}
	return f.lower.SetLength(prevLen)
}
