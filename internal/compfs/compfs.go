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
//	[0, 4096):  header — magic, version, uncompressed length,
//	            table offset/length, next free offset
//	[4096, …):  log of compressed block extents; rewritten blocks are
//	            appended and the old extent becomes garbage (reclaimed by
//	            Compact)
//	table:      at tableOff — count + (ublock, offset, clen) entries
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
	"sync/atomic"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// BlockSize is the uncompressed block granularity (one VM page).
const BlockSize = vm.PageSize

// HeaderSize is the fixed header region of the underlying file.
const HeaderSize = 4096

// Magic identifies a COMPFS underlying file.
const Magic = 0x434f4d5046530a01 // "COMPFS\n\x01"

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

	nextBacking atomic.Uint64

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
		f := &compFile{fs: c, lower: lower, backing: c.nextBacking.Add(1)}
		if mode == ModeCoherent {
			f.conn = &fsys.LowerConn{Layer: name, ID: f.backing, Domain: domain,
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

// Create implements fsys.FS: creating file_COMP creates a fresh underlying
// file holding an empty COMPFS image.
func (c *CompFS) Create(name string, cred naming.Credentials) (fsys.File, error) {
	f, err := c.Passthrough.Create(name, cred)
	if err != nil {
		return nil, err
	}
	if err := f.(*compFile).initImage(); err != nil {
		return nil, err
	}
	return f, nil
}

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

// compressBlock deflates a 4 KiB block; if the result does not shrink the
// block it is stored raw (flagged by clen == BlockSize).
func compressBlock(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if buf.Len() >= BlockSize {
		out := make([]byte, BlockSize)
		copy(out, data)
		return out, nil
	}
	return buf.Bytes(), nil
}

// decompressBlock inverts compressBlock.
func decompressBlock(data []byte) ([]byte, error) {
	if len(data) == BlockSize {
		out := make([]byte, BlockSize)
		copy(out, data)
		return out, nil
	}
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	out := make([]byte, 0, BlockSize)
	buf := make([]byte, BlockSize)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("compfs: inflate: %w", err)
		}
	}
	if len(out) != BlockSize {
		return nil, fmt.Errorf("compfs: inflated %d bytes, want %d", len(out), BlockSize)
	}
	return out, nil
}

// ---- block table ----

// extent locates one compressed block in the underlying file.
type extent struct {
	off  int64
	clen int32
}

// blockTable maps uncompressed block numbers to extents.
type blockTable struct {
	blocks    map[int64]extent
	uncompLen int64
	nextFree  int64
}

func newBlockTable() *blockTable {
	return &blockTable{blocks: make(map[int64]extent), nextFree: HeaderSize}
}

// encode serialises the table (without the header).
func (t *blockTable) encode() []byte {
	be := binary.BigEndian
	out := make([]byte, 4, 4+len(t.blocks)*20)
	be.PutUint32(out, uint32(len(t.blocks)))
	var rec [20]byte
	for bn, e := range t.blocks {
		be.PutUint64(rec[0:], uint64(bn))
		be.PutUint64(rec[8:], uint64(e.off))
		be.PutUint32(rec[16:], uint32(e.clen))
		out = append(out, rec[:]...)
	}
	return out
}

func decodeBlockTable(data []byte) (map[int64]extent, error) {
	be := binary.BigEndian
	if len(data) < 4 {
		return nil, ErrBadFormat
	}
	n := int(be.Uint32(data))
	if len(data) < 4+20*n {
		return nil, ErrBadFormat
	}
	blocks := make(map[int64]extent, n)
	for i := 0; i < n; i++ {
		rec := data[4+20*i:]
		blocks[int64(be.Uint64(rec[0:]))] = extent{
			off:  int64(be.Uint64(rec[8:])),
			clen: int32(be.Uint32(rec[16:])),
		}
	}
	return blocks, nil
}
