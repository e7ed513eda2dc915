// Package disklayer implements the base disk layer of the Spring storage
// file system (Figure 10 of the paper): an on-disk UFS-compatible file
// system built directly on a storage device.
//
// The disk layer deliberately implements *no coherency algorithm*. It
// services page-in/page-out requests against the disk and maintains a small
// amount of locked-down state — basically an i-node cache, which lets open
// and stat operations complete without disk I/O while reads and writes go
// to the device (this is the behaviour the Table 2 caption describes). An
// instance of the generic coherency layer is stacked on top of the disk
// layer to form SFS, and all files are exported via the coherency layer.
//
// On-disk layout (block size 4096, matching the VM page size):
//
//	block 0:              superblock
//	blocks 1..j:          metadata journal ring (record + commit blocks)
//	blocks j+1..b:        block allocation bitmap
//	blocks b+1..i:        inode table (32 inodes per block)
//	blocks i+1..N:        data blocks
//
// Inodes hold 10 direct block pointers, one single-indirect and one
// double-indirect pointer (512 pointers per indirect block), giving a
// maximum file size of (10 + 512 + 512*512)*4 KiB ≈ 1 GiB.
// docs/DISKLAYER.md is the byte-level format reference.
//
// Three mechanisms make the layer fast as well as crash-consistent:
//
//   - Metadata mutations are transactions, group-committed through a
//     circular redo journal: concurrent transactions share one record
//     run, one CRC'd commit block, and one barrier, and checkpointing
//     rides behind a durability watermark (see journal.go for the
//     lifecycle diagram and replay rules).
//   - Block allocation is extent-aware: FFS-style allocation groups plus
//     per-inode last-block hints lay sequential writes out contiguously
//     (alloc.go; the disk.alloc.contig counter measures the ratio).
//   - The pager detects sequential page-in streams and widens transfers
//     through the device's run I/O path, up to 64 blocks per positioning
//     delay (file.go; disk.readahead.hits / .wasted).
package disklayer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"springfs/internal/blockdev"
	"springfs/internal/naming"
)

// BlockSize is the file system block size; it equals the device block size
// and the VM page size.
const BlockSize = blockdev.BlockSize

// Magic identifies a disklayer superblock.
const Magic = 0x5350524e_47465331 // "SPRNGFS1"

// Version is the on-disk format version. Version 2 added the metadata
// journal region between the superblock and the allocation bitmap;
// version 3 turned it into a multi-batch circular journal (group commit)
// with a new commit-block wire format.
const Version = 3

// Layout constants.
const (
	// NumDirect is the number of direct block pointers per inode.
	NumDirect = 10
	// PtrsPerBlock is the number of block pointers in an indirect block.
	PtrsPerBlock = BlockSize / 8
	// InodeSize is the on-disk inode size in bytes.
	InodeSize = 128
	// InodesPerBlock is the number of inodes per table block.
	InodesPerBlock = BlockSize / InodeSize
	// RootIno is the inode number of the root directory.
	RootIno = 1
	// MaxFileBlocks is the maximum number of data blocks per file.
	MaxFileBlocks = NumDirect + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock
)

// Inode modes.
const (
	// ModeFree marks an unallocated inode.
	ModeFree uint32 = iota
	// ModeFile marks a regular file.
	ModeFile
	// ModeDir marks a directory.
	ModeDir
)

// Errors returned by the disk layer.
var (
	// ErrBadMagic means the device does not hold a disklayer file system.
	ErrBadMagic = errors.New("disklayer: bad superblock magic")
	// ErrNoSpace means the device is out of data blocks.
	ErrNoSpace = errors.New("disklayer: no space left on device")
	// ErrNoInodes means the inode table is full.
	ErrNoInodes = errors.New("disklayer: out of inodes")
	// ErrBadInode means an inode number is out of range or free.
	ErrBadInode = errors.New("disklayer: bad inode")
	// ErrNotDir means a directory operation hit a non-directory inode.
	ErrNotDir = fmt.Errorf("disklayer: not a directory: %w", naming.ErrNotContext)
	// ErrIsDir means a file operation hit a directory inode.
	ErrIsDir = errors.New("disklayer: is a directory")
	// ErrDirNotEmpty means removing a directory that still has entries.
	ErrDirNotEmpty = fmt.Errorf("disklayer: directory not empty: %w", naming.ErrNotEmpty)
	// ErrNameTooLong means a directory entry name exceeds the format
	// limit.
	ErrNameTooLong = errors.New("disklayer: name too long")
	// ErrGeometry means the superblock's recorded geometry does not fit
	// the device (e.g. a truncated image) or is internally inconsistent.
	ErrGeometry = errors.New("disklayer: invalid superblock geometry")
)

// MaxNameLen bounds directory entry names.
const MaxNameLen = 255

// superblock is the on-disk file system descriptor.
type superblock struct {
	magic         uint64
	version       uint32
	nblocks       int64 // total device blocks
	ninodes       int64
	bitmapStart   int64
	bitmapBlocks  int64
	itableStart   int64
	itableBlocks  int64
	dataStart     int64
	rootIno       uint64
	freeBlocks    int64
	freeInodes    int64
	journalStart  int64
	journalBlocks int64
}

func (sb *superblock) encode(buf []byte) {
	be := binary.BigEndian
	be.PutUint64(buf[0:], sb.magic)
	be.PutUint32(buf[8:], sb.version)
	be.PutUint64(buf[12:], uint64(sb.nblocks))
	be.PutUint64(buf[20:], uint64(sb.ninodes))
	be.PutUint64(buf[28:], uint64(sb.bitmapStart))
	be.PutUint64(buf[36:], uint64(sb.bitmapBlocks))
	be.PutUint64(buf[44:], uint64(sb.itableStart))
	be.PutUint64(buf[52:], uint64(sb.itableBlocks))
	be.PutUint64(buf[60:], uint64(sb.dataStart))
	be.PutUint64(buf[68:], sb.rootIno)
	be.PutUint64(buf[76:], uint64(sb.freeBlocks))
	be.PutUint64(buf[84:], uint64(sb.freeInodes))
	be.PutUint64(buf[92:], uint64(sb.journalStart))
	be.PutUint64(buf[100:], uint64(sb.journalBlocks))
}

func (sb *superblock) decode(buf []byte) error {
	be := binary.BigEndian
	sb.magic = be.Uint64(buf[0:])
	if sb.magic != Magic {
		return ErrBadMagic
	}
	sb.version = be.Uint32(buf[8:])
	if sb.version != Version {
		return fmt.Errorf("disklayer: unsupported version %d", sb.version)
	}
	sb.nblocks = int64(be.Uint64(buf[12:]))
	sb.ninodes = int64(be.Uint64(buf[20:]))
	sb.bitmapStart = int64(be.Uint64(buf[28:]))
	sb.bitmapBlocks = int64(be.Uint64(buf[36:]))
	sb.itableStart = int64(be.Uint64(buf[44:]))
	sb.itableBlocks = int64(be.Uint64(buf[52:]))
	sb.dataStart = int64(be.Uint64(buf[60:]))
	sb.rootIno = be.Uint64(buf[68:])
	sb.freeBlocks = int64(be.Uint64(buf[76:]))
	sb.freeInodes = int64(be.Uint64(buf[84:]))
	sb.journalStart = int64(be.Uint64(buf[92:]))
	sb.journalBlocks = int64(be.Uint64(buf[100:]))
	return nil
}

// validate checks the superblock's geometry against the device it was read
// from: region bounds must chain correctly and everything must fit in
// devBlocks, so a truncated or corrupted image is rejected at Mount with a
// clear error instead of failing later with an out-of-range I/O.
func (sb *superblock) validate(devBlocks int64) error {
	if sb.nblocks > devBlocks {
		return fmt.Errorf("%w: image records %d blocks but device has only %d (truncated image?)",
			ErrGeometry, sb.nblocks, devBlocks)
	}
	if sb.journalStart != journalBase || sb.journalBlocks < 2 || sb.journalBlocks > maxRingBlocks {
		return fmt.Errorf("%w: journal region [%d,+%d)", ErrGeometry, sb.journalStart, sb.journalBlocks)
	}
	if sb.bitmapStart != sb.journalStart+sb.journalBlocks ||
		sb.itableStart != sb.bitmapStart+sb.bitmapBlocks ||
		sb.dataStart != sb.itableStart+sb.itableBlocks {
		return fmt.Errorf("%w: metadata regions do not chain", ErrGeometry)
	}
	if sb.dataStart > sb.nblocks {
		return fmt.Errorf("%w: metadata extends past the device", ErrGeometry)
	}
	if sb.ninodes < 1 || sb.itableBlocks != (sb.ninodes+InodesPerBlock)/InodesPerBlock {
		return fmt.Errorf("%w: inode table %d blocks for %d inodes", ErrGeometry, sb.itableBlocks, sb.ninodes)
	}
	if sb.bitmapBlocks != (sb.nblocks+BlockSize*8-1)/(BlockSize*8) {
		return fmt.Errorf("%w: bitmap %d blocks for %d device blocks", ErrGeometry, sb.bitmapBlocks, sb.nblocks)
	}
	if sb.rootIno != RootIno {
		return fmt.Errorf("%w: root inode %d", ErrGeometry, sb.rootIno)
	}
	if sb.freeBlocks < 0 || sb.freeBlocks > sb.nblocks-sb.dataStart ||
		sb.freeInodes < 0 || sb.freeInodes >= sb.ninodes {
		return fmt.Errorf("%w: free counts out of range", ErrGeometry)
	}
	return nil
}

// inode is the in-memory form of an on-disk inode.
type inode struct {
	mode      uint32
	nlink     uint32
	length    int64
	atime     int64 // unix nanoseconds
	mtime     int64
	direct    [NumDirect]int64
	indirect  int64
	dindirect int64
}

func (in *inode) encode(buf []byte) {
	be := binary.BigEndian
	be.PutUint32(buf[0:], in.mode)
	be.PutUint32(buf[4:], in.nlink)
	be.PutUint64(buf[8:], uint64(in.length))
	be.PutUint64(buf[16:], uint64(in.atime))
	be.PutUint64(buf[24:], uint64(in.mtime))
	for i := 0; i < NumDirect; i++ {
		be.PutUint64(buf[32+8*i:], uint64(in.direct[i]))
	}
	be.PutUint64(buf[32+8*NumDirect:], uint64(in.indirect))
	be.PutUint64(buf[40+8*NumDirect:], uint64(in.dindirect))
}

func (in *inode) decode(buf []byte) {
	be := binary.BigEndian
	in.mode = be.Uint32(buf[0:])
	in.nlink = be.Uint32(buf[4:])
	in.length = int64(be.Uint64(buf[8:]))
	in.atime = int64(be.Uint64(buf[16:]))
	in.mtime = int64(be.Uint64(buf[24:]))
	for i := 0; i < NumDirect; i++ {
		in.direct[i] = int64(be.Uint64(buf[32+8*i:]))
	}
	in.indirect = int64(be.Uint64(buf[32+8*NumDirect:]))
	in.dindirect = int64(be.Uint64(buf[40+8*NumDirect:]))
}

// MkfsOptions configure file system creation.
type MkfsOptions struct {
	// NumInodes sets the inode table size; 0 derives it from the device
	// size (one inode per 8 data blocks, minimum 64).
	NumInodes int64
	// JournalBlocks sets the metadata journal size (commit block plus
	// record blocks); 0 derives it from the device size.
	JournalBlocks int64
}

// journalSize derives the default journal region size: one block per 64
// device blocks, clamped so tiny devices still fit a useful journal and
// large ones do not exceed what a single commit block can address.
func journalSize(nblocks int64) int64 {
	j := nblocks / 64
	if j < 10 {
		j = 10
	}
	if j > maxRingBlocks {
		j = maxRingBlocks
	}
	return j
}

// Mkfs formats dev with an empty file system containing only the root
// directory.
func Mkfs(dev blockdev.Device, opts MkfsOptions) error {
	nblocks := dev.NumBlocks()
	if nblocks < 8 {
		return fmt.Errorf("disklayer: device too small (%d blocks)", nblocks)
	}
	ninodes := opts.NumInodes
	if ninodes <= 0 {
		ninodes = nblocks / 8
		if ninodes < 64 {
			ninodes = 64
		}
	}
	journalBlocks := opts.JournalBlocks
	if journalBlocks <= 0 {
		journalBlocks = journalSize(nblocks)
	}
	if journalBlocks < 2 || journalBlocks > maxRingBlocks {
		return fmt.Errorf("disklayer: journal size %d out of range [2,%d]", journalBlocks, maxRingBlocks)
	}
	// Inode numbers start at 1; inode 0 is reserved as "null".
	itableBlocks := (ninodes + InodesPerBlock) / InodesPerBlock
	bitmapBlocks := (nblocks + BlockSize*8 - 1) / (BlockSize * 8)
	sb := superblock{
		magic:         Magic,
		version:       Version,
		nblocks:       nblocks,
		ninodes:       ninodes,
		journalStart:  journalBase,
		journalBlocks: journalBlocks,
		bitmapStart:   journalBase + journalBlocks,
		bitmapBlocks:  bitmapBlocks,
		itableStart:   journalBase + journalBlocks + bitmapBlocks,
		itableBlocks:  itableBlocks,
		dataStart:     journalBase + journalBlocks + bitmapBlocks + itableBlocks,
		rootIno:       RootIno,
	}
	if sb.dataStart >= nblocks {
		return fmt.Errorf("disklayer: device too small for metadata (%d blocks)", nblocks)
	}
	sb.freeBlocks = nblocks - sb.dataStart
	sb.freeInodes = ninodes - 1 // root is allocated

	// Zero the journal region; a zero commit block means "no transaction".
	buf := make([]byte, BlockSize)
	for b := int64(0); b < journalBlocks; b++ {
		if err := dev.WriteBlock(sb.journalStart+b, buf); err != nil {
			return err
		}
	}
	// Zero the bitmap and mark metadata blocks used.
	for b := int64(0); b < bitmapBlocks; b++ {
		for i := range buf {
			buf[i] = 0
		}
		for bit := int64(0); bit < BlockSize*8; bit++ {
			bn := b*BlockSize*8 + bit
			if bn < sb.dataStart && bn < nblocks {
				buf[bit/8] |= 1 << (bit % 8)
			}
		}
		if err := dev.WriteBlock(sb.bitmapStart+b, buf); err != nil {
			return err
		}
	}
	// Zero the inode table and write the root directory inode.
	now := time.Now().UnixNano()
	for b := int64(0); b < itableBlocks; b++ {
		for i := range buf {
			buf[i] = 0
		}
		if b == RootIno/InodesPerBlock {
			root := inode{mode: ModeDir, nlink: 1, atime: now, mtime: now}
			root.encode(buf[(RootIno%InodesPerBlock)*InodeSize:])
		}
		if err := dev.WriteBlock(sb.itableStart+b, buf); err != nil {
			return err
		}
	}
	// Write the superblock last so a crash mid-mkfs leaves no valid fs.
	for i := range buf {
		buf[i] = 0
	}
	sb.encode(buf)
	if err := dev.WriteBlock(0, buf); err != nil {
		return err
	}
	return dev.Flush()
}
