// Package compfs implements COMPFS, the compression file system layer of
// the paper (Section 4.2.1, Figures 5 and 6, and the compression layer
// listed as work in progress in Section 8).
//
// COMPFS saves disk space by compressing all data before writing it to the
// underlying file system and uncompressing all data read from it. It is
// implemented as a layer stacked on top of a base file system: a request
// to create file_COMP results in COMPFS creating an underlying file whose
// content is the compressed image.
//
// # On-"disk" layout of the underlying file
//
// The underlying file is an fsys.Image whose table holds the uncompressed
// length and one (ublock, offset, clen) extent per stored block. A
// rewritten block goes to a fresh extent and its old one is freed, so an
// fsync reuses the space earlier rewrites and shrinks gave back.
//
// Each 4 KiB uncompressed block compresses independently (DEFLATE); blocks
// that do not shrink are stored raw. Writes are write-through: a block
// write immediately lands compressed in the underlying file, so direct
// readers of the underlying file observe fresh compressed data.
//
// # Coherency modes (the two design points of Section 4.2.1)
//
// ModeNonCoherent reproduces Figure 5: COMPFS accesses the underlying file
// through its file interface and does not act as a cache manager;
// concurrent direct writes to file_SFS are not reflected in COMPFS's
// cached block table or in caches of file_COMP mappings.
//
// ModeCoherent reproduces Figure 6: COMPFS establishes itself as a cache
// manager for the underlying file (the C3–P3 connection) by issuing a bind
// operation on it. The underlying layer's coherency actions (flush-back /
// deny-writes / delete-range) arrive through COMPFS's fs_cache object,
// which invalidates the cached block table and the caches of everyone
// mapping file_COMP — so mappings of file_SFS and file_COMP stay coherent.
package compfs

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// BlockSize is the uncompressed block granularity (one VM page).
const BlockSize = vm.PageSize

// Magic identifies a COMPFS underlying file.
const Magic = 0x434f4d5046530a01 // "COMPFS\n\x01"

// imageVersion is the image format: version 1 kept the length and a
// next-free offset in the header.
const imageVersion = 2

// Mode selects the coherency design point.
type Mode int

const (
	// ModeCoherent makes COMPFS a cache manager for the underlying file
	// (Figure 6).
	ModeCoherent Mode = iota
	// ModeNonCoherent skips the cache-manager connection (Figure 5).
	ModeNonCoherent
)

// Errors returned by compfs.
var (
	// ErrBadFormat means the underlying file is not a COMPFS image.
	ErrBadFormat = errors.New("compfs: underlying file is not a COMPFS image")
)

// CompFS is an instance of the compression layer: the pass-through name
// space of fsys.Passthrough with every file wrapped in a compFile.
type CompFS struct {
	fsys.Passthrough
	domain *spring.Domain
	mode   Mode
	table  *fsys.ConnectionTable

	// CompressedBytes and UncompressedBytes accumulate the volume of data
	// written, for space-saving reports.
	CompressedBytes   stats.Counter
	UncompressedBytes stats.Counter
	// Invalidations counts lower-layer coherency callbacks received.
	Invalidations stats.Counter
}

var (
	_ fsys.StackableFS      = (*CompFS)(nil)
	_ naming.ProxyWrappable = (*CompFS)(nil)
)

// New creates a COMPFS instance served by domain.
func New(domain *spring.Domain, name string, mode Mode) *CompFS {
	c := &CompFS{domain: domain, mode: mode, table: fsys.NewConnectionTable(domain)}
	c.Init(name, c, func(lower fsys.File) fsys.File {
		f := &compFile{fs: c, lower: lower}
		f.FilePager, f.Blocks = c.table.NewPager(f, true), fsys.Blocks{Viewer: f}
		f.image = fsys.Image{Lower: lower, ReadAt: f.readLower, Magic: Magic,
			Version: imageVersion, Align: 1, Bad: ErrBadFormat}
		if mode == ModeCoherent {
			f.conn = &fsys.LowerConn{Layer: name, ID: f.Backing(), Domain: domain,
				Lower: lower, Access: vm.RightsRead, Cache: &compCacheObject{f: f}}
		}
		return f
	})
	return c
}

// NewCreator returns a stackable_fs_creator for COMPFS. The config key
// "mode" may be "coherent" (default) or "noncoherent".
func NewCreator(domain *spring.Domain) fsys.Creator {
	var n atomic.Uint64
	return fsys.CreatorFunc(func(config map[string]string) (fsys.StackableFS, error) {
		name := config["name"]
		if name == "" {
			name = fmt.Sprintf("compfs%d", n.Add(1))
		}
		mode := ModeCoherent
		switch config["mode"] {
		case "", "coherent":
		case "noncoherent":
			mode = ModeNonCoherent
		default:
			return nil, fmt.Errorf("compfs: unknown mode %q", config["mode"])
		}
		return New(domain, name, mode), nil
	})
}

// Mode returns the coherency mode.
func (c *CompFS) Mode() Mode { return c.mode }

// SyncFS implements fsys.FS: persist every cached block table, then sync
// the layer below.
func (c *CompFS) SyncFS() error {
	for _, f := range c.Files() {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return c.Passthrough.SyncFS()
}

// ---- compression helpers ----

// The codec state is pooled: a flate.Writer is some 600 KB and a reader
// 40 KB, against a 4 KiB block. Reset makes either one equivalent to a
// fresh one, so pooling changes no stored byte.
var (
	deflaters = sync.Pool{New: func() any {
		d := new(deflater)
		d.w, _ = flate.NewWriter(&d.buf, flate.BestSpeed) // a valid level: no error
		return d
	}}
	inflaters = sync.Pool{New: func() any {
		i := new(inflater)
		i.r = flate.NewReader(&i.src)
		return i
	}}
)

type deflater struct {
	w   *flate.Writer
	buf bytes.Buffer
}

type inflater struct {
	r    io.ReadCloser // also a flate.Resetter
	src  bytes.Reader
	over [1]byte
}

// compressBlock deflates a 4 KiB block (writes to a bytes.Buffer cannot
// fail); if that does not shrink it, data itself is returned to be stored
// raw, flagged by clen == BlockSize.
func compressBlock(data []byte) []byte {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	d.buf.Reset()
	d.w.Reset(&d.buf)
	d.w.Write(data)
	d.w.Close()
	if d.buf.Len() >= BlockSize {
		return data
	}
	return bytes.Clone(d.buf.Bytes())
}

// decompressBlock inverts compressBlock into dst, one block long. A
// stream that inflates to more or fewer than BlockSize bytes is refused,
// and inflating stops one byte past the block, so a corrupt extent costs
// no more than a good one.
func decompressBlock(dst, data []byte) error {
	if len(data) == BlockSize {
		copy(dst, data)
		return nil
	}
	i := inflaters.Get().(*inflater)
	defer inflaters.Put(i)
	i.src.Reset(data)
	i.r.(flate.Resetter).Reset(&i.src, nil) // never fails
	n, err := io.ReadFull(i.r, dst)
	if err == nil {
		// The stream must end with the block: inflate one byte further.
		if n, err = i.r.Read(i.over[:]); n > 0 {
			return fmt.Errorf("compfs: inflates past %d bytes", BlockSize)
		} else if err == io.EOF {
			return nil
		}
	} else if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("compfs: inflated %d bytes, want %d", n, BlockSize)
	}
	return fmt.Errorf("compfs: inflate: %w", err)
}

// ---- block table ----

// blockTable maps uncompressed block numbers to the extents holding them
// compressed.
type blockTable struct {
	blocks    map[int64]fsys.Extent
	uncompLen int64
}

func newBlockTable() *blockTable {
	return &blockTable{blocks: make(map[int64]fsys.Extent)}
}

// encode serialises the table: the uncompressed length, a count, then one
// (ublock, offset, clen) record per block.
func (t *blockTable) encode() []byte {
	be := binary.BigEndian
	out := be.AppendUint32(be.AppendUint64(make([]byte, 0, 12+20*len(t.blocks)), uint64(t.uncompLen)), uint32(len(t.blocks)))
	for bn, e := range t.blocks {
		out = be.AppendUint32(be.AppendUint64(be.AppendUint64(out, uint64(bn)), uint64(e.Off)), uint32(e.Len))
	}
	return out
}

// decodeBlockTable parses a committed table (empty: an empty image) and
// returns the extents it references. A clen outside [1, BlockSize] is no
// COMPFS extent.
func decodeBlockTable(data []byte) (*blockTable, []fsys.Extent, error) {
	be := binary.BigEndian
	t := newBlockTable()
	if len(data) == 0 {
		return t, nil, nil
	}
	if len(data) < 12 {
		return nil, nil, ErrBadFormat
	}
	t.uncompLen = int64(be.Uint64(data))
	n := int(be.Uint32(data[8:]))
	if t.uncompLen < 0 || len(data) < 12+20*n {
		return nil, nil, ErrBadFormat
	}
	live := make([]fsys.Extent, 0, n)
	for i := 0; i < n; i++ {
		rec := data[12+20*i:]
		off, clen := int64(be.Uint64(rec[8:])), be.Uint32(rec[16:])
		if clen < 1 || clen > BlockSize {
			return nil, nil, ErrBadFormat
		}
		t.blocks[int64(be.Uint64(rec[0:]))] = fsys.Extent{Off: off, Len: int64(clen)}
		live = append(live, fsys.Extent{Off: off, Len: int64(clen)})
	}
	return t, live, nil
}
