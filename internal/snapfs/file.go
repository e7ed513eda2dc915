package snapfs

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// BlockSize is the COW granularity (one VM page, so shared blocks align
// with the page cache below).
const BlockSize = vm.PageSize

// HeaderSize is the fixed header region of an image file. Data blocks are
// appended at BlockSize-aligned offsets after it, so an upper page maps
// 1:1 onto a lower page and the layers below cache exactly one copy of a
// block shared by any number of epochs.
const HeaderSize = vm.PageSize

// Magic identifies a SNAPFS image file.
const Magic = 0x534e415046530a01 // "SNAPFS\n\x01"

// tombOff marks a block explicitly deleted in an epoch (a truncation must
// mask the ancestor's version without touching it).
const tombOff = int64(-1)

// Instrumented operations (docs/OBSERVABILITY.md).
var (
	opRead  = stats.NewHotOp("snapfs.read", stats.BoundaryDirect)
	opWrite = stats.NewHotOp("snapfs.write", stats.BoundaryDirect)
)

// imageTable is one file's epoch-tagged remap state: which epoch owns
// which version of which block, and the file length as seen by each epoch
// that ever changed it.
type imageTable struct {
	blocks   map[uint64]map[int64]int64 // epoch → block → image offset (tombOff = hole)
	lengths  map[uint64]int64           // epoch → length, for epochs that set it
	nextFree int64
}

func newImageTable() *imageTable {
	return &imageTable{
		blocks:   make(map[uint64]map[int64]int64),
		lengths:  make(map[uint64]int64),
		nextFree: HeaderSize,
	}
}

// encode serialises the table (appended to the image log after the data).
func (t *imageTable) encode() []byte {
	be := binary.BigEndian
	nblocks := 0
	for _, m := range t.blocks {
		nblocks += len(m)
	}
	out := make([]byte, 4, 8+24*nblocks+16*len(t.lengths))
	be.PutUint32(out, uint32(nblocks))
	var rec [24]byte
	for ep, m := range t.blocks {
		for bn, off := range m {
			be.PutUint64(rec[0:], ep)
			be.PutUint64(rec[8:], uint64(bn))
			be.PutUint64(rec[16:], uint64(off))
			out = append(out, rec[:]...)
		}
	}
	var cnt [4]byte
	be.PutUint32(cnt[:], uint32(len(t.lengths)))
	out = append(out, cnt[:]...)
	for ep, l := range t.lengths {
		be.PutUint64(rec[0:], ep)
		be.PutUint64(rec[8:], uint64(l))
		out = append(out, rec[:16]...)
	}
	return out
}

func decodeImageTable(data []byte) (*imageTable, error) {
	be := binary.BigEndian
	t := newImageTable()
	if len(data) < 4 {
		return nil, ErrBadImage
	}
	n := int(be.Uint32(data))
	data = data[4:]
	if len(data) < 24*n+4 {
		return nil, ErrBadImage
	}
	for i := 0; i < n; i++ {
		rec := data[24*i:]
		ep := be.Uint64(rec[0:])
		bn := int64(be.Uint64(rec[8:]))
		off := int64(be.Uint64(rec[16:]))
		m := t.blocks[ep]
		if m == nil {
			m = make(map[int64]int64)
			t.blocks[ep] = m
		}
		m[bn] = off
	}
	data = data[24*n:]
	n = int(be.Uint32(data))
	data = data[4:]
	if len(data) < 16*n {
		return nil, ErrBadImage
	}
	for i := 0; i < n; i++ {
		rec := data[16*i:]
		t.lengths[be.Uint64(rec[0:])] = int64(be.Uint64(rec[8:]))
	}
	return t, nil
}

// ErrBadImage means an underlying file is not a SNAPFS image.
var ErrBadImage = fmt.Errorf("snapfs: underlying file is not a SNAPFS image")

// snapImage is the shared per-file store: one underlying image file plus
// its epoch-tagged remap table, serving every epoch's view of the file.
type snapImage struct {
	fs     *SnapFS
	fileID uint64
	lower  fsys.File

	mu      sync.Mutex
	tbl     *imageTable // nil until loaded
	dirty   bool
	refs    int  // retained upper handles, all views combined
	orphan  bool // no epoch references the file any more
	handles map[string]*snapFile
}

// loadLocked reads the header and remap table from the image file.
func (img *snapImage) loadLocked() error {
	if img.tbl != nil {
		return nil
	}
	length, err := img.lower.GetLength()
	if err != nil {
		return err
	}
	if length == 0 {
		img.tbl = newImageTable()
		return nil
	}
	hdr := make([]byte, 64)
	if err := img.readLower(hdr, 0); err != nil {
		return err
	}
	be := binary.BigEndian
	if be.Uint64(hdr[0:]) != Magic {
		return ErrBadImage
	}
	tableOff := int64(be.Uint64(hdr[12:]))
	tableLen := int64(be.Uint64(hdr[20:]))
	nextFree := int64(be.Uint64(hdr[28:]))
	if tableLen == 0 {
		img.tbl = newImageTable()
		img.tbl.nextFree = nextFree
		return nil
	}
	raw := make([]byte, tableLen)
	if err := img.readLower(raw, tableOff); err != nil {
		return err
	}
	tbl, err := decodeImageTable(raw)
	if err != nil {
		return err
	}
	tbl.nextFree = nextFree
	img.tbl = tbl
	return nil
}

// writeMetaLocked appends the remap table to the image log and rewrites
// the header to point at it.
func (img *snapImage) writeMetaLocked() error {
	if img.tbl == nil {
		img.tbl = newImageTable()
	}
	raw := img.tbl.encode()
	tableOff := img.tbl.nextFree
	if _, err := img.lower.WriteAt(raw, tableOff); err != nil {
		return err
	}
	// Ordering barrier: the table records (and any data blocks they point
	// at) must be durable before the header flips to reference them. The
	// header itself is a single-page update, so after a crash recovery
	// sees either the old or the new consistent (header, table) pair.
	if err := img.lower.Sync(); err != nil {
		return err
	}
	img.tbl.nextFree = tableOff + int64(len(raw))
	hdr := make([]byte, 64)
	be := binary.BigEndian
	be.PutUint64(hdr[0:], Magic)
	be.PutUint32(hdr[8:], 1)
	be.PutUint64(hdr[12:], uint64(tableOff))
	be.PutUint64(hdr[20:], uint64(len(raw)))
	be.PutUint64(hdr[28:], uint64(img.tbl.nextFree))
	if _, err := img.lower.WriteAt(hdr, 0); err != nil {
		return err
	}
	img.dirty = false
	return nil
}

// readLower reads len(p) bytes at off, zero-filling past the image's end
// (a short read at EOF is implicit zeros, never an error).
func (img *snapImage) readLower(p []byte, off int64) error {
	n, err := img.lower.ReadAt(p, off)
	if err == io.EOF {
		err = nil
	}
	clear(p[n:])
	return err
}

// allocLocked reserves a fresh BlockSize-aligned extent in the image log.
func (img *snapImage) allocLocked() int64 {
	off := (img.tbl.nextFree + BlockSize - 1) / BlockSize * BlockSize
	img.tbl.nextFree = off + BlockSize
	return off
}

// resolveLocked finds the offset of block bn as seen by chain (nearest
// epoch first). ok=false means the block was never written (a hole); a
// tombstone also reads as a hole.
func (img *snapImage) resolveLocked(chain []uint64, bn int64) (off int64, ok bool) {
	for _, ep := range chain {
		if o, exists := img.tbl.blocks[ep][bn]; exists {
			if o == tombOff {
				return 0, false
			}
			return o, true
		}
	}
	return 0, false
}

// lengthLocked is the file length as seen by chain.
func (img *snapImage) lengthLocked(chain []uint64) int64 {
	for _, ep := range chain {
		if l, ok := img.tbl.lengths[ep]; ok {
			return l
		}
	}
	return 0
}

// blockReader returns the block reader of chain's view: a mapped block is
// read straight into the destination, a hole reads as zeros. The caller
// holds img.mu with the table loaded for as long as it uses the reader.
func (img *snapImage) blockReader(chain []uint64) fsys.BlockFunc {
	return func(bn int64, dst []byte) error {
		if off, ok := img.resolveLocked(chain, bn); ok {
			return img.readLower(dst, off)
		}
		clear(dst)
		return nil
	}
}

// blockWriter returns the block writer landing in epoch ep (same locking
// as blockReader).
func (img *snapImage) blockWriter(ep uint64) fsys.BlockFunc {
	return func(bn int64, src []byte) error { return img.writeBlockLocked(ep, bn, src) }
}

// writeBlockLocked installs data as epoch's version of block bn. If the
// epoch already owns a live version it is overwritten in place (nobody
// else can see it); otherwise the block diverges: a fresh extent is
// appended and tagged, leaving every ancestor's version untouched.
func (img *snapImage) writeBlockLocked(ep uint64, bn int64, data []byte) error {
	m := img.tbl.blocks[ep]
	if m == nil {
		m = make(map[int64]int64)
		img.tbl.blocks[ep] = m
	}
	off, owned := m[bn]
	if !owned || off == tombOff {
		off = img.allocLocked()
		snapCowBlocks.Inc()
	}
	if _, err := img.lower.WriteAt(data, off); err != nil {
		return err
	}
	m[bn] = off
	img.dirty = true
	return nil
}

// readAt serves a read for chain's view of the file.
func (img *snapImage) readAt(chain []uint64, p []byte, off int64) (int, error) {
	img.mu.Lock()
	defer img.mu.Unlock()
	if err := img.loadLocked(); err != nil {
		return 0, err
	}
	return fsys.ReadBlocksAt(p, off, img.lengthLocked(chain), img.blockReader(chain))
}

// writeAt serves a write landing in epoch chain[0] (the writable epoch of
// the calling view); partial blocks read-modify-write through the chain,
// so a diverging block starts from the snapshot's content.
func (img *snapImage) writeAt(chain []uint64, p []byte, off int64) (int, error) {
	img.mu.Lock()
	defer img.mu.Unlock()
	if err := img.loadLocked(); err != nil {
		return 0, err
	}
	return img.writeAtLocked(chain, p, off)
}

func (img *snapImage) writeAtLocked(chain []uint64, p []byte, off int64) (int, error) {
	ep := chain[0]
	done, err := fsys.WriteBlocksAt(p, off, img.blockReader(chain), img.blockWriter(ep))
	if err != nil {
		return done, err
	}
	if end := off + int64(done); end > img.lengthLocked(chain) {
		img.tbl.lengths[ep] = end
		img.dirty = true
	}
	return done, nil
}

// setLength truncates or extends epoch chain[0]'s view. A shrink must not
// touch ancestor data: blocks the epoch owns are dropped, blocks an
// ancestor would still show are masked with tombstones, and the partial
// boundary block (if any) diverges zero-tailed.
func (img *snapImage) setLength(ep uint64, chain []uint64, length int64) error {
	img.mu.Lock()
	defer img.mu.Unlock()
	if err := img.loadLocked(); err != nil {
		return err
	}
	old := img.lengthLocked(chain)
	if length < old {
		cutoff := (length + BlockSize - 1) / BlockSize // first wholly-dead block
		// Union of block numbers any chain epoch knows about.
		dead := make(map[int64]bool)
		for _, ce := range chain {
			for bn := range img.tbl.blocks[ce] {
				if bn >= cutoff {
					dead[bn] = true
				}
			}
		}
		m := img.tbl.blocks[ep]
		for bn := range dead {
			visibleBelow := false
			for _, ce := range chain[1:] {
				if o, ok := img.tbl.blocks[ce][bn]; ok {
					visibleBelow = o != tombOff
					break
				}
			}
			if visibleBelow {
				if m == nil {
					m = make(map[int64]int64)
					img.tbl.blocks[ep] = m
				}
				m[bn] = tombOff
			} else if m != nil {
				delete(m, bn)
			}
		}
		// The boundary block diverges zero-tailed, so a later re-extension
		// reads zeros, not the old content.
		if err := fsys.ZeroTail(img.blockReader(chain), img.blockWriter(ep), length); err != nil {
			return err
		}
	}
	img.tbl.lengths[ep] = length
	img.dirty = true
	return nil
}

// append reserves the end-of-file range and writes in one critical
// section, so concurrent appenders to any view of the epoch never
// interleave.
func (img *snapImage) append(chain []uint64, p []byte) (int64, int, error) {
	img.mu.Lock()
	defer img.mu.Unlock()
	if err := img.loadLocked(); err != nil {
		return 0, 0, err
	}
	off := img.lengthLocked(chain)
	n, err := img.writeAtLocked(chain, p, off)
	return off, n, err
}

// Sync flushes the remap table (if dirty) and the image below.
func (img *snapImage) Sync() error {
	img.mu.Lock()
	if img.tbl != nil && img.dirty {
		if err := img.writeMetaLocked(); err != nil {
			img.mu.Unlock()
			return err
		}
	}
	img.mu.Unlock()
	return img.lower.Sync()
}

// sameUnder compares the file's effective state under two chains by
// extent identity. A block owned by a sealed epoch never changes, and a
// live epoch's in-place rewrites are only visible to chains that include
// it, so identical extents imply identical bytes.
func (img *snapImage) sameUnder(chainA, chainB []uint64) (bool, error) {
	img.mu.Lock()
	defer img.mu.Unlock()
	if err := img.loadLocked(); err != nil {
		return false, err
	}
	if img.lengthLocked(chainA) != img.lengthLocked(chainB) {
		return false, nil
	}
	bns := make(map[int64]bool)
	for _, ep := range chainA {
		for bn := range img.tbl.blocks[ep] {
			bns[bn] = true
		}
	}
	for _, ep := range chainB {
		for bn := range img.tbl.blocks[ep] {
			bns[bn] = true
		}
	}
	for bn := range bns {
		offA, okA := img.resolveLocked(chainA, bn)
		offB, okB := img.resolveLocked(chainB, bn)
		if okA != okB || (okA && offA != offB) {
			return false, nil
		}
	}
	return true, nil
}

// retain/release track upper handles; the forwarded lower retains keep an
// unlinked image's storage alive until the last upper close.
func (img *snapImage) retain() {
	img.mu.Lock()
	img.refs++
	img.mu.Unlock()
	fsys.Retain(img.lower)
}

func (img *snapImage) release() error {
	img.mu.Lock()
	if img.refs > 0 {
		img.refs--
	}
	drop := img.refs == 0 && img.orphan
	img.mu.Unlock()
	err := fsys.Release(img.lower)
	if drop {
		img.fs.mu.Lock()
		if cur, ok := img.fs.files[img.fileID]; ok && cur == img {
			delete(img.fs.files, img.fileID)
		}
		img.fs.mu.Unlock()
	}
	return err
}

// snapFile is one view handle: a file as seen by one epoch reference
// (main line, snapshot, or clone) of a shared image. Handles on the main
// line re-resolve the current epoch on every operation, so a descriptor
// opened before Snapshot keeps tracking the live file.
type snapFile struct {
	img      *snapImage
	ref      epochRef
	writable bool
	backing  uint64
}

var (
	_ fsys.File             = (*snapFile)(nil)
	_ fsys.Appender         = (*snapFile)(nil)
	_ fsys.HandleFile       = (*snapFile)(nil)
	_ naming.ProxyWrappable = (*snapFile)(nil)
)

// WrapForChannel implements naming.ProxyWrappable.
func (f *snapFile) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.NewFileProxy(ch, f)
}

// Lower returns the underlying image file (tests).
func (f *snapFile) Lower() fsys.File { return f.img.lower }

// chain resolves the handle's epoch chain (main handles re-resolve).
func (f *snapFile) chain() ([]uint64, error) {
	return f.img.fs.chainFor(f.ref)
}

// ReadAt implements fsys.File.
func (f *snapFile) ReadAt(p []byte, off int64) (int, error) {
	t := opRead.Start()
	defer func() { opRead.End(t, int64(len(p))) }()
	chain, err := f.chain()
	if err != nil {
		return 0, err
	}
	return f.img.readAt(chain, p, off)
}

// WriteAt implements fsys.File. The epoch gate (read-held) pins the
// resolved epoch against a concurrent Snapshot, so a write never lands in
// an epoch after it sealed.
func (f *snapFile) WriteAt(p []byte, off int64) (int, error) {
	if !f.writable {
		return 0, fsys.ErrReadOnly
	}
	t := opWrite.Start()
	defer func() { opWrite.End(t, int64(len(p))) }()
	fs := f.img.fs
	fs.epochMu.RLock()
	defer fs.epochMu.RUnlock()
	chain, err := f.chain()
	if err != nil {
		return 0, err
	}
	return f.img.writeAt(chain, p, off)
}

// Append implements fsys.Appender.
func (f *snapFile) Append(p []byte) (int64, int, error) {
	if !f.writable {
		return 0, 0, fsys.ErrReadOnly
	}
	fs := f.img.fs
	fs.epochMu.RLock()
	defer fs.epochMu.RUnlock()
	chain, err := f.chain()
	if err != nil {
		return 0, 0, err
	}
	return f.img.append(chain, p)
}

// GetLength implements vm.MemoryObject.
func (f *snapFile) GetLength() (vm.Offset, error) {
	chain, err := f.chain()
	if err != nil {
		return 0, err
	}
	f.img.mu.Lock()
	defer f.img.mu.Unlock()
	if err := f.img.loadLocked(); err != nil {
		return 0, err
	}
	return f.img.lengthLocked(chain), nil
}

// SetLength implements vm.MemoryObject.
func (f *snapFile) SetLength(length vm.Offset) error {
	if !f.writable {
		return fsys.ErrReadOnly
	}
	fs := f.img.fs
	fs.epochMu.RLock()
	defer fs.epochMu.RUnlock()
	chain, err := f.chain()
	if err != nil {
		return err
	}
	return f.img.setLength(chain[0], chain, length)
}

// Stat implements fsys.File: the length is the view's; times come from
// the shared image below.
func (f *snapFile) Stat() (fsys.Attributes, error) {
	lowerAttrs, err := f.img.lower.Stat()
	if err != nil {
		return fsys.Attributes{}, err
	}
	length, err := f.GetLength()
	if err != nil {
		return fsys.Attributes{}, err
	}
	return fsys.Attributes{
		Length:     length,
		AccessTime: lowerAttrs.AccessTime,
		ModifyTime: lowerAttrs.ModifyTime,
	}, nil
}

// Sync implements fsys.File.
func (f *snapFile) Sync() error { return f.img.Sync() }

// Retain implements fsys.HandleFile.
func (f *snapFile) Retain() { f.img.retain() }

// Release implements fsys.HandleFile.
func (f *snapFile) Release() error { return f.img.release() }

// Bind implements vm.MemoryObject: SNAPFS is the pager for its views (the
// exported view differs per epoch, so binds terminate here; cache sharing
// of unmodified data happens one layer down, where every view reads the
// same image pages).
func (f *snapFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	rights, _, _ := f.img.fs.table.Bind(caller, f.backing, func() vm.PagerObject {
		return &fsys.FilePager{File: f, In: f.pageIn, Out: f.pageOut, SyncAfterOut: true}
	})
	return rights, nil
}

// pageIn and pageOut are the data movers of the pager serving mapped
// access to one view of a file; the pager's Sync also flushes the remap
// table.
func (f *snapFile) pageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	chain, err := f.chain()
	if err != nil {
		return nil, err
	}
	f.img.mu.Lock()
	defer f.img.mu.Unlock()
	if err := f.img.loadLocked(); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	if err := fsys.EachBlock(offset, size, out, f.img.blockReader(chain)); err != nil {
		return nil, err
	}
	return out, nil
}

func (f *snapFile) pageOut(offset, size vm.Offset, data []byte) error {
	if !f.writable {
		return fsys.ErrReadOnly
	}
	fs := f.img.fs
	fs.epochMu.RLock()
	defer fs.epochMu.RUnlock()
	chain, err := f.chain()
	if err != nil {
		return err
	}
	f.img.mu.Lock()
	defer f.img.mu.Unlock()
	if err := f.img.loadLocked(); err != nil {
		return err
	}
	return fsys.EachBlock(offset, size, data, f.img.blockWriter(chain[0]))
}
