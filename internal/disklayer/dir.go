package disklayer

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"springfs/internal/naming"
)

// Directory data format: a sequence of entries, each
//
//	u16 name length | name bytes | u64 inode number
//
// Directories are rewritten wholesale on mutation; they are small and the
// simplicity keeps the focus on the stacking architecture.

// dirEntry is one decoded directory entry.
type dirEntry struct {
	name string
	ino  uint64
}

// readFileData reads the first length bytes of an inode's data, observing
// blocks staged in the open transaction (directory content is metadata and
// travels through the journal). Caller holds fs.mu.
func (fs *DiskFS) readFileData(ci *cachedInode) ([]byte, error) {
	out := make([]byte, ci.in.length)
	buf := getBlockBuf()
	defer putBlockBuf(buf)
	for off := int64(0); off < ci.in.length; off += BlockSize {
		bn, err := fs.bmap(ci, off/BlockSize, nil)
		if err != nil {
			return nil, err
		}
		n := ci.in.length - off
		if n > BlockSize {
			n = BlockSize
		}
		if bn == 0 {
			continue // hole reads as zeros
		}
		if err := fs.metaRead(bn, buf); err != nil {
			return nil, err
		}
		copy(out[off:off+n], buf)
	}
	return out, nil
}

// writeFileData replaces the inode's data with data. It is used only for
// directory content, which is metadata: the blocks are staged in the open
// transaction so a crash applies the whole rewrite or none of it (the
// content must never disagree with the length stored in the inode). Caller
// holds fs.mu.
func (fs *DiskFS) writeFileData(ci *cachedInode, data []byte) error {
	if err := fs.truncateLocked(ci, int64(len(data))); err != nil {
		return err
	}
	buf := getBlockBuf()
	defer putBlockBuf(buf)
	alloc := func() (int64, error) { return fs.allocZeroed(ci) }
	for off := 0; off < len(data); off += BlockSize {
		bn, err := fs.bmap(ci, int64(off/BlockSize), alloc)
		if err != nil {
			return err
		}
		for i := range buf {
			buf[i] = 0
		}
		copy(buf, data[off:])
		if err := fs.metaWrite(bn, buf); err != nil {
			return err
		}
	}
	ci.in.length = int64(len(data))
	ci.in.mtime = fs.now()
	ci.dirty = true
	return fs.writeInode(ci)
}

// decodeDir parses directory data.
func decodeDir(data []byte) ([]dirEntry, error) {
	var out []dirEntry
	for off := 0; off < len(data); {
		if off+2 > len(data) {
			return nil, fmt.Errorf("disklayer: truncated directory entry header")
		}
		nl := int(binary.BigEndian.Uint16(data[off:]))
		off += 2
		if off+nl+8 > len(data) {
			return nil, fmt.Errorf("disklayer: truncated directory entry")
		}
		name := string(data[off : off+nl])
		off += nl
		ino := binary.BigEndian.Uint64(data[off:])
		off += 8
		out = append(out, dirEntry{name: name, ino: ino})
	}
	return out, nil
}

// encodeDir serialises entries.
func encodeDir(entries []dirEntry) []byte {
	var size int
	for _, e := range entries {
		size += 2 + len(e.name) + 8
	}
	out := make([]byte, 0, size)
	var hdr [2]byte
	var inoBuf [8]byte
	for _, e := range entries {
		binary.BigEndian.PutUint16(hdr[:], uint16(len(e.name)))
		out = append(out, hdr[:]...)
		out = append(out, e.name...)
		binary.BigEndian.PutUint64(inoBuf[:], e.ino)
		out = append(out, inoBuf[:]...)
	}
	return out
}

// dirEntries returns the entries of directory ino. Caller holds fs.mu.
// Entries are cached in memory (alongside the i-node cache) so that open
// and lookup operations complete without disk I/O, per the paper's
// description of the disk layer's wired-down state.
func (fs *DiskFS) dirEntries(ino uint64) ([]dirEntry, *cachedInode, error) {
	ci, err := fs.readInode(ino)
	if err != nil {
		return nil, nil, err
	}
	if ci.in.mode != ModeDir {
		return nil, nil, ErrNotDir
	}
	if entries, ok := fs.dcache[ino]; ok {
		return entries, ci, nil
	}
	data, err := fs.readFileData(ci)
	if err != nil {
		return nil, nil, err
	}
	entries, err := decodeDir(data)
	if err != nil {
		return nil, nil, err
	}
	fs.dcache[ino] = entries
	return entries, ci, nil
}

// dirLookup finds name in directory dirIno. Caller holds fs.mu.
func (fs *DiskFS) dirLookup(dirIno uint64, name string) (uint64, error) {
	entries, _, err := fs.dirEntries(dirIno)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if e.name == name {
			return e.ino, nil
		}
	}
	return 0, fmt.Errorf("disklayer: %q: %w", name, naming.ErrNotFound)
}

// dirEdit rewrites directory dirIno once: every name in drop is removed
// (each must exist) and add, if non-nil, inserted (its name must not
// survive the drops). One edit is one write of the directory's data
// however many entries change — a rename inside one directory must not
// empty it, free its block and allocate another on the way. Caller holds
// fs.mu.
func (fs *DiskFS) dirEdit(dirIno uint64, drop []string, add *dirEntry) error {
	entries, ci, err := fs.dirEntries(dirIno)
	if err != nil {
		return err
	}
	// Build a fresh slice: entries may be the cached one.
	out := make([]dirEntry, 0, len(entries)+1)
	dropped := 0
	for _, e := range entries {
		if slices.Contains(drop, e.name) {
			dropped++
			continue
		}
		if add != nil && e.name == add.name {
			return fmt.Errorf("disklayer: %q: %w", e.name, naming.ErrExists)
		}
		out = append(out, e)
	}
	if dropped != len(drop) {
		return fmt.Errorf("disklayer: %q: %w", drop, naming.ErrNotFound)
	}
	if add != nil {
		if len(add.name) > MaxNameLen {
			return ErrNameTooLong
		}
		out = append(out, *add)
		sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	}
	if err := fs.writeFileData(ci, encodeDir(out)); err != nil {
		delete(fs.dcache, dirIno)
		return err
	}
	fs.dcache[dirIno] = out
	return nil
}

// dirInsert adds (name, ino) to directory dirIno, failing if name exists.
// Caller holds fs.mu.
func (fs *DiskFS) dirInsert(dirIno uint64, name string, ino uint64) error {
	return fs.dirEdit(dirIno, nil, &dirEntry{name: name, ino: ino})
}

// dirRemove removes name from directory dirIno. Caller holds fs.mu.
func (fs *DiskFS) dirRemove(dirIno uint64, name string) error {
	return fs.dirEdit(dirIno, []string{name}, nil)
}
