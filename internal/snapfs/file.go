package snapfs

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// BlockSize is the COW granularity and the image's extent alignment: one
// VM page, so an upper page maps 1:1 onto a lower page and the layers
// below cache one copy of a block shared by any number of epochs.
const BlockSize = vm.PageSize

// Magic identifies a SNAPFS image file.
const Magic = 0x534e415046530a01 // "SNAPFS\n\x01"

// imageVersion is the image format: version 1 kept a next-free offset in
// the header.
const imageVersion = 2

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
	blocks  map[uint64]map[int64]int64 // epoch → block → image offset (tombOff = hole)
	lengths map[uint64]int64           // epoch → length, for epochs that set it
}

// epoch returns epoch ep's block map, making it if ep has none yet.
func (t *imageTable) epoch(ep uint64) map[int64]int64 {
	if t.blocks[ep] == nil {
		t.blocks[ep] = make(map[int64]int64)
	}
	return t.blocks[ep]
}

// encode serialises the table: a count and one (epoch, block, offset)
// record per block version, then a count and one (epoch, length) record
// per length.
func (t *imageTable) encode() []byte {
	be := binary.BigEndian
	nblocks := 0
	for _, m := range t.blocks {
		nblocks += len(m)
	}
	out := be.AppendUint32(make([]byte, 0, 8+24*nblocks+16*len(t.lengths)), uint32(nblocks))
	for ep, m := range t.blocks {
		for bn, off := range m {
			out = be.AppendUint64(be.AppendUint64(be.AppendUint64(out, ep), uint64(bn)), uint64(off))
		}
	}
	out = be.AppendUint32(out, uint32(len(t.lengths)))
	for ep, l := range t.lengths {
		out = be.AppendUint64(be.AppendUint64(out, ep), uint64(l))
	}
	return out
}

// decodeImageTable parses a committed table (empty: an empty image) and
// returns the block extents it references; the image's load checks their
// alignment.
func decodeImageTable(data []byte) (*imageTable, []fsys.Extent, error) {
	be := binary.BigEndian
	t := &imageTable{blocks: make(map[uint64]map[int64]int64), lengths: make(map[uint64]int64)}
	if len(data) == 0 {
		return t, nil, nil
	}
	if len(data) < 8 || len(data) < 8+24*int(be.Uint32(data)) {
		return nil, nil, ErrBadImage
	}
	n := int(be.Uint32(data))
	var live []fsys.Extent
	for i := range n {
		rec := data[4+24*i:]
		off := int64(be.Uint64(rec[16:]))
		t.epoch(be.Uint64(rec))[int64(be.Uint64(rec[8:]))] = off
		if off != tombOff {
			live = append(live, fsys.Extent{Off: off, Len: BlockSize})
		}
	}
	data = data[4+24*n:]
	if n = int(be.Uint32(data)); len(data) < 4+16*n {
		return nil, nil, ErrBadImage
	}
	for i := range n {
		rec := data[4+16*i:]
		t.lengths[be.Uint64(rec)] = int64(be.Uint64(rec[8:]))
	}
	return t, live, nil
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
	image   fsys.Image
	tbl     *imageTable // nil until loaded
	dirty   bool
	refs    int  // retained upper handles, all views combined
	orphan  bool // no epoch references the file any more
	handles map[epochRef]*snapFile
}

// newSnapImage is fileID's image, held in lower, not loaded yet.
func newSnapImage(s *SnapFS, fileID uint64, lower fsys.File) *snapImage {
	return &snapImage{fs: s, fileID: fileID, lower: lower, handles: make(map[epochRef]*snapFile),
		image: fsys.Image{Lower: lower, Magic: Magic, Version: imageVersion, Align: BlockSize, Bad: ErrBadImage}}
}

// loadLocked reads the remap table from the image file.
func (img *snapImage) loadLocked() error {
	if img.tbl != nil {
		return nil
	}
	tbl, err := fsys.LoadImage(&img.image, decodeImageTable)
	if err != nil {
		return err
	}
	img.tbl = tbl
	return nil
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
			return img.image.Read(dst, off)
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
// allocated and tagged, leaving every ancestor's version untouched.
func (img *snapImage) writeBlockLocked(ep uint64, bn int64, data []byte) error {
	m := img.tbl.epoch(ep)
	off, owned := m[bn]
	if !owned || off == tombOff {
		off = img.image.Alloc(BlockSize)
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
// touch ancestor data: blocks the epoch owns are dropped and their extents
// freed, blocks an ancestor would still show are masked with tombstones,
// and the partial boundary block (if any) diverges zero-tailed.
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
			if off, owned := m[bn]; owned && off != tombOff {
				img.image.Free(off, BlockSize)
			}
			visibleBelow := false
			for _, ce := range chain[1:] {
				if o, ok := img.tbl.blocks[ce][bn]; ok {
					visibleBelow = o != tombOff
					break
				}
			}
			if visibleBelow {
				img.tbl.epoch(ep)[bn] = tombOff
			} else {
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

// Sync commits the remap table if it changed (the commit's barriers sync
// the image), else syncs the image below.
func (img *snapImage) Sync() error {
	img.mu.Lock()
	if img.tbl == nil || !img.dirty {
		img.mu.Unlock()
		return img.lower.Sync()
	}
	defer img.mu.Unlock()
	err := img.image.Commit(img.tbl.encode())
	img.dirty = err != nil
	return err
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
	for _, ep := range slices.Concat(chainA, chainB) {
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

// writeChain resolves the chain for a mutation under the read-held epoch
// gate, so a write never lands in an epoch a concurrent Snapshot sealed.
// The caller defers the returned release whether or not it fails.
func (f *snapFile) writeChain() ([]uint64, func(), error) {
	if !f.writable {
		return nil, func() {}, fsys.ErrReadOnly
	}
	f.img.fs.epochMu.RLock()
	chain, err := f.chain()
	return chain, f.img.fs.epochMu.RUnlock, err
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

// WriteAt implements fsys.File.
func (f *snapFile) WriteAt(p []byte, off int64) (int, error) {
	if !f.writable {
		return 0, fsys.ErrReadOnly
	}
	t := opWrite.Start()
	defer func() { opWrite.End(t, int64(len(p))) }()
	chain, release, err := f.writeChain()
	defer release()
	if err != nil {
		return 0, err
	}
	return f.img.writeAt(chain, p, off)
}

// Append implements fsys.Appender.
func (f *snapFile) Append(p []byte) (int64, int, error) {
	chain, release, err := f.writeChain()
	defer release()
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
	chain, release, err := f.writeChain()
	defer release()
	if err != nil {
		return err
	}
	return f.img.setLength(chain[0], chain, length)
}

// Stat implements fsys.File: the view's length, and the times of the
// shared image below.
func (f *snapFile) Stat() (fsys.Attributes, error) { return f.img.image.Stat(f.GetLength()) }

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
	chain, release, err := f.writeChain()
	defer release()
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
